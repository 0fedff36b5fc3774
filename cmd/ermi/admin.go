package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"sort"
	"time"

	"elasticrmi/internal/core"
	"elasticrmi/internal/transport"
)

func admin(_ context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("admin", flag.ContinueOnError)
	registry := fs.String("registry", "127.0.0.1:7099", "registry address")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	args = fs.Args()
	switch {
	case len(args) == 0:
		return usageError("admin: missing list or status")
	case args[0] == "status" && len(args) < 2:
		return usageError("admin status: missing pool name")
	case args[0] != "list" && args[0] != "status":
		return usageError(fmt.Sprintf("admin: unknown subcommand %q", args[0]))
	}
	reg, err := core.DialRegistry(*registry)
	if err != nil {
		return err
	}
	defer reg.Close()
	if args[0] == "list" {
		return list(reg, out)
	}
	return status(reg, args[1], out)
}

func list(reg *core.RegistryClient, out io.Writer) error {
	names, err := reg.List()
	if err != nil {
		return err
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(out, "no pools bound")
		return nil
	}
	for _, name := range names {
		eps, err := reg.Lookup(name)
		if err != nil {
			fmt.Fprintf(out, "%-24s (lookup failed: %v)\n", name, err)
			continue
		}
		fmt.Fprintf(out, "%-24s %d members, sentinel %s\n", name, len(eps), eps[0])
	}
	return nil
}

func status(reg *core.RegistryClient, pool string, out io.Writer) error {
	eps, err := reg.Lookup(pool)
	if err != nil {
		return fmt.Errorf("lookup %s: %w", pool, err)
	}
	if len(eps) == 0 {
		return fmt.Errorf("pool %s has no endpoints", pool)
	}
	// Discover the authoritative roster through the sentinel.
	var rep core.DiscoverReply
	if err := callMember(pool, eps[0], core.MethodDiscover, &rep); err != nil {
		return fmt.Errorf("discover via sentinel: %w", err)
	}
	fmt.Fprintf(out, "pool %s: %d members (sentinel first), routing epoch %d\n", pool, len(rep.Members), rep.Epoch)
	fmt.Fprintf(out, "%-22s %6s %8s %9s %7s %7s  %s\n",
		"address", "uid", "pending", "draining", "cpu%", "ram%", "methods (rate/s @ avg latency)")
	for _, m := range rep.Members {
		var st core.StatsReply
		if err := callMember(pool, m.Addr, core.MethodStats, &st); err != nil {
			fmt.Fprintf(out, "%-22s %6d %8s %9s (stats unavailable: %v)\n", m.Addr, m.UID, "-", "-", err)
			continue
		}
		fmt.Fprintf(out, "%-22s %6d %8d %9v %7.1f %7.1f ",
			m.Addr, st.UID, st.Pending, st.Draining, st.CPU, st.RAM)
		for _, ms := range st.Methods {
			fmt.Fprintf(out, " %s:%.1f/s@%s", ms.Method, ms.RatePerSec, ms.AvgLatency.Round(time.Microsecond))
		}
		fmt.Fprintln(out)
	}
	return nil
}

// callMember invokes one of the runtime's argument-less control methods
// (discover, stats) on a single pool member.
func callMember(pool, addr, method string, reply transport.Unmarshaler) error {
	c, err := transport.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	return c.CallDecode(pool, method, nil, reply, 5*time.Second)
}
