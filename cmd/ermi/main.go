// Command ermi is the operations binary of an ElasticRMI deployment, with
// three subcommands:
//
//	ermi registry [-addr :7099]
//
// runs a standalone naming service, the counterpart of rmiregistry. Elastic
// pools bind their class name to the current pool endpoints (sentinel
// first); stubs look names up on startup. It serves until SIGINT/SIGTERM.
//
//	ermi admin [-registry 127.0.0.1:7099] list
//	ermi admin [-registry 127.0.0.1:7099] status <pool>
//
// lists the pools bound in a registry, or shows one pool's membership and
// per-member workload statistics, through the same discovery and stats
// methods stubs and the runtime use.
//
//	ermi demo [-duration 20s] [-rps 400]
//
// runs a complete live deployment in one process and makes it visibly
// elastic: a Mesos-like cluster of slices, a sharded key-value store for
// shared state, a registry, an elastic distributed cache pool (the paper's
// running example) and an open-loop workload generator replaying a
// compressed version of the paper's abrupt workload pattern. It prints the
// pool size as the runtime reacts.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"elasticrmi/internal/core"
)

const usage = `usage:
  ermi registry [-addr :7099]
  ermi admin [-registry 127.0.0.1:7099] list | status <pool>
  ermi demo [-duration 20s] [-rps 400]`

var subcommands = map[string]func(ctx context.Context, args []string, out io.Writer) error{
	"registry": registry,
	"admin":    admin,
	"demo":     demo,
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ermi:", err)
		os.Exit(1)
	}
}

// run dispatches args[0] to its subcommand. Cancelling ctx stops a
// long-running subcommand (registry, demo) early.
func run(ctx context.Context, args []string, out io.Writer) error {
	if len(args) == 0 {
		return usageError("missing subcommand")
	}
	cmd, ok := subcommands[args[0]]
	if !ok {
		return usageError(fmt.Sprintf("unknown subcommand %q", args[0]))
	}
	return cmd(ctx, args[1:], out)
}

func usageError(msg string) error { return fmt.Errorf("%s\n%s", msg, usage) }

// parseFlags parses a subcommand's flags, reporting a bad flag (or -h) as a
// usage error instead of printing to stderr itself.
func parseFlags(fs *flag.FlagSet, args []string) error {
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return usageError(fmt.Sprintf("%s: %v", fs.Name(), err))
	}
	return nil
}

func registry(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("registry", flag.ContinueOnError)
	addr := fs.String("addr", ":7099", "listen address")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	srv, err := core.NewRegistryServer(*addr)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(out, "ermi registry listening on %s\n", srv.Addr())
	<-ctx.Done()
	fmt.Fprintln(out, "shutting down")
	return nil
}
