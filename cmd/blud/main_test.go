package main

import (
	"strings"
	"testing"
)

// TestStartupErrorsNameTheFlag checks that each bad setting is refused
// before anything listens, with an error naming the flag at fault.
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
		{[]string{"-state", t.TempDir(), "-wal-sync", "0s"}, "-wal-sync"},
		{[]string{"-state", t.TempDir(), "-snapshot-interval", "0s"}, "-snapshot-interval"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			err := run(append([]string{"-addr", "127.0.0.1:0"}, tc.args...))
			if err == nil || !strings.Contains(err.Error(), tc.flag) {
				t.Fatalf("err = %v, want a startup error naming %s", err, tc.flag)
			}
		})
	}
}
