// Command bluctl holds the scripted checks ci.sh makes against a
// running server and the manifests the tooling writes.
//
// Usage:
//
//	bluctl probe -addr HOST:PORT [flags]
//	bluctl manifest [-require counter,...] [-require-phase name,...] manifest.json
//
// probe issues one HTTP request and asserts on the answer — the
// scriptable half of ci.sh's restart and fleet drills, which prove
// that a session-keyed infer after a kill -9 restart answers
// byte-identically from the restored cache. Its flags:
//
//	-addr a               target daemon address (required)
//	-path p               endpoint path (default /v1/infer)
//	-body file            request body file (JSON; "-" reads stdin,
//	                      empty sends a GET instead of a POST)
//	-require-status n     fail unless the response status equals n
//	                      (default 200)
//	-require-cache v      fail unless the X-Blu-Cache header equals v
//	                      (e.g. hit or miss; empty = don't check)
//	-save-body file       write the response body here
//	-require-body-file f  fail unless the response body is byte-
//	                      identical to this file's contents
//
// manifest validates a run manifest written by blusim, blutrace infer
// or blud (-manifest) or by bluload (-o): the file must parse, survive
// a marshal → parse round-trip unchanged, pass the obs invariants,
// and — when -require / -require-phase is given — carry the named
// nonzero counters and the named phases.
//
// Exit status is nonzero on transport errors or any failed check, with
// a one-line reason on stderr.
package main

import (
	"fmt"
	"os"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bluctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: bluctl <probe|manifest> ...")
	}
	switch args[0] {
	case "probe":
		return probeCmd(args[1:])
	case "manifest":
		return manifestCmd(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}
