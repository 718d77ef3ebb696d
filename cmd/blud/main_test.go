package main

import (
	"strings"
	"testing"
)

// TestStartupErrorsNameTheFlag checks that each bad setting is refused
// before anything listens, with an error naming the flag at fault. An
// arg of "DIR" stands for a fresh t.TempDir(), so subtest names stay the
// same from run to run.
func TestStartupErrorsNameTheFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-mode", "cluster"}, "-mode"},
		{[]string{"-queue", "0"}, "-queue"},
		{[]string{"-workers", "-1"}, "-workers"},
		{[]string{"-mode", "all", "-cells", "0"}, "-cells"},
		{[]string{"-mode", "all", "-shards", "0"}, "-shards"},
		{[]string{"-mode", "all", "-exchange", "-1s"}, "-exchange"},
		{[]string{"-mode", "shard"}, "-name"},
		{[]string{"-mode", "router"}, "-shard"},
		{[]string{"-mode", "router", "-shard", "shard-0"}, "-shard"},
		{[]string{"-state", "DIR", "-wal-sync", "0s"}, "-wal-sync"},
		{[]string{"-state", "DIR", "-snapshot-interval", "0s"}, "-snapshot-interval"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			args := []string{"-addr", "127.0.0.1:0"}
			for _, a := range tc.args {
				if a == "DIR" {
					a = t.TempDir()
				}
				args = append(args, a)
			}
			err := run(args)
			if err == nil || !strings.Contains(err.Error(), tc.flag) {
				t.Fatalf("err = %v, want a startup error naming %s", err, tc.flag)
			}
		})
	}
}
