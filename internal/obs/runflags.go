package obs

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux
	"os"
)

// RunFlags is the -manifest/-pprof pair every long-running command
// takes. The command that owns the process writes its run manifest;
// libraries and servers only record into the registry.
type RunFlags struct {
	tool     string
	manifest string
	pprof    string
	man      *Manifest
}

// AddRunFlags registers -manifest and -pprof on fs. The flag set's
// name is the tool name stamped on the manifest and on log lines.
func AddRunFlags(fs *flag.FlagSet) *RunFlags {
	r := &RunFlags{tool: fs.Name()}
	fs.StringVar(&r.manifest, "manifest", "", "write a JSON run manifest to this file at exit (enables metric recording)")
	fs.StringVar(&r.pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	return r
}

// Start serves pprof when -pprof is set and, when -manifest is set,
// enables metric recording and starts the manifest for this
// invocation. It returns the manifest, or nil without -manifest, so
// the caller can add config and phases (AddPhase accepts nil).
func (r *RunFlags) Start(args []string) (*Manifest, error) {
	if r.pprof != "" {
		addr, err := servePprof(r.pprof)
		if err != nil {
			return nil, fmt.Errorf("-pprof: %w", err)
		}
		fmt.Fprintf(os.Stderr, "%s: pprof on http://%s/debug/pprof/\n", r.tool, addr)
	}
	if r.manifest != "" {
		Enable()
		r.man = NewManifest(r.tool, args)
	}
	return r.man, nil
}

// Finish writes the manifest, snapshotting the registry now, when
// -manifest is set. Call it once the run's work (or a server's drain)
// is complete.
func (r *RunFlags) Finish() error {
	if r.man == nil {
		return nil
	}
	if err := r.man.Write(r.manifest); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: wrote manifest %s\n", r.tool, r.manifest)
	return nil
}

// servePprof starts the net/http/pprof debug server on addr (":0"
// picks a free port) in a background goroutine and returns the bound
// address. The server lives for the rest of the process.
func servePprof(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() {
		// DefaultServeMux carries the pprof handlers registered by the
		// net/http/pprof import.
		_ = http.Serve(ln, nil)
	}()
	return ln.Addr().String(), nil
}
