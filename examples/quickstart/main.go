// Quickstart: the smallest complete ElasticRMI program.
//
// It defines an elastic "counter" class, instantiates it into a pool of two
// objects on a miniature cluster, and invokes its remote methods through a
// stub — the pool behaves as a single remote object, with shared state in
// the external store.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"elasticrmi/internal/cluster"
	"elasticrmi/internal/core"
	"elasticrmi/internal/kvstore"
)

//go:generate go run elasticrmi/cmd/ermi-gen -in main.go -out main_ermi.go

// The remote method argument/reply types travel through the codec ermi-gen
// generates for them (main_ermi.go); an un-annotated type would not compile
// against core.Handle and core.Call.
//
//ermi:codec
type (
	addArgs  struct{ N int64 }
	addReply struct{ Total int64 }
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer) error {
	// 1. Substrates: a cluster of slices (Mesos stand-in), a key-value
	//    store for shared state (HyperDex stand-in), and a registry.
	mgr, err := cluster.New(cluster.Config{Nodes: 4, SlicesPerNode: 1})
	if err != nil {
		return err
	}
	defer mgr.Close()
	store, err := kvstore.NewCluster(1, nil)
	if err != nil {
		return err
	}
	defer store.Close()
	regSrv, err := core.NewRegistryServer("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer regSrv.Close()
	reg, err := core.DialRegistry(regSrv.Addr())
	if err != nil {
		return err
	}
	defer reg.Close()

	// 2. The elastic class: a factory producing one object per pool member.
	//    Instance fields live in ctx.State — every member sees them.
	factory := func(ctx *core.MemberContext) (core.Object, error) {
		mux := core.NewMux()
		core.Handle(mux, "Add", func(a addArgs) (addReply, error) {
			total, err := ctx.State.AddInt("total", a.N)
			return addReply{Total: total}, err
		})
		core.Handle(mux, "Total", func(core.Empty) (addReply, error) {
			total, err := ctx.State.GetInt("total")
			return addReply{Total: total}, err
		})
		return mux, nil
	}

	// 3. Instantiate the elastic object pool (min 2, max 4 objects).
	pool, err := core.NewPool(core.Config{
		Name:          "counter",
		MinPoolSize:   2,
		MaxPoolSize:   4,
		BurstInterval: time.Minute,
	}, factory, core.Deps{Cluster: mgr, Store: store, Registry: reg})
	if err != nil {
		return err
	}
	defer pool.Close()
	fmt.Fprintf(out, "counter pool up: %d members, sentinel %s\n", pool.Size(), pool.SentinelAddr())

	// 4. A client: look the pool up by name and invoke remote methods. The
	//    stub load-balances across members transparently.
	stub, err := core.LookupStub("counter", reg)
	if err != nil {
		return err
	}
	defer stub.Close()

	for i := 1; i <= 5; i++ {
		rep, err := core.Call[addArgs, addReply](stub, "Add", addArgs{N: int64(i)})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Add(%d) -> total %d\n", i, rep.Total)
	}
	rep, err := core.Call[core.Empty, addReply](stub, "Total", core.Empty{})
	if err != nil {
		return err
	}
	// Shared state: every member sees the same total, whichever one the
	// stub routed each Add to.
	fmt.Fprintf(out, "Total() -> %d\n", rep.Total)
	return nil
}
