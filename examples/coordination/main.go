// Example: the DCS coordination service (paper §5.2) on ElasticRMI —
// hierarchical configuration, totally ordered updates, and leader election
// with sequential znodes, plus a Paxos round through the consensus pool.
//
// Run with:
//
//	go run ./examples/coordination
package main

import (
	"fmt"
	"log"
	"time"

	"elasticrmi/internal/apps/dcs"
	"elasticrmi/internal/apps/paxos"
	"elasticrmi/internal/cluster"
	"elasticrmi/internal/core"
	"elasticrmi/internal/kvstore"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	mgr, err := cluster.New(cluster.Config{Nodes: 10, SlicesPerNode: 1})
	if err != nil {
		return err
	}
	defer mgr.Close()
	store, err := kvstore.NewCluster(2, nil)
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
	deps := core.Deps{Cluster: mgr, Store: store, Registry: reg}

	// Two elastic pools side by side: the coordination service and a Paxos
	// consensus group — the datacenter-infrastructure combo the paper's
	// introduction motivates.
	dcsPool, err := core.NewPool(core.Config{
		Name: "dcs", MinPoolSize: 2, MaxPoolSize: 5, BurstInterval: 5 * time.Second,
	}, dcs.New(dcs.Config{}), deps)
	if err != nil {
		return err
	}
	defer dcsPool.Close()
	paxosPool, err := core.NewPool(core.Config{
		Name: "consensus", MinPoolSize: 3, MaxPoolSize: 5, BurstInterval: 5 * time.Second,
	}, paxos.New(paxos.Config{}), deps)
	if err != nil {
		return err
	}
	defer paxosPool.Close()
	fmt.Printf("dcs pool: %d servers; consensus pool: %d replicas\n", dcsPool.Size(), paxosPool.Size())

	dcsStub, err := core.LookupStub("dcs", reg)
	if err != nil {
		return err
	}
	defer dcsStub.Close()

	// Distributed configuration: a small tree.
	for _, n := range []struct{ path, data string }{
		{"/config", ""},
		{"/config/db", "host=db0:5432"},
		{"/config/cache-ttl", "300"},
	} {
		if _, err := core.Call[dcs.CreateArgs, dcs.CreateReply](dcsStub, dcs.MethodCreate,
			dcs.CreateArgs{Path: n.path, Data: []byte(n.data)}); err != nil {
			return err
		}
	}
	kids, err := core.Call[dcs.PathArgs, dcs.ChildrenReply](dcsStub, dcs.MethodGetChildren,
		dcs.PathArgs{Path: "/config"})
	if err != nil {
		return err
	}
	fmt.Printf("/config children: %v\n", kids.Children)

	// Leader election with sequential znodes: the lowest sequence wins.
	if _, err := core.Call[dcs.CreateArgs, dcs.CreateReply](dcsStub, dcs.MethodCreate,
		dcs.CreateArgs{Path: "/election"}); err != nil {
		return err
	}
	candidates := []string{"svc-a", "svc-b", "svc-c"}
	seqs := make(map[string]string, len(candidates))
	for _, c := range candidates {
		rep, err := core.Call[dcs.CreateArgs, dcs.CreateReply](dcsStub, dcs.MethodCreate,
			dcs.CreateArgs{Path: "/election/n-", Data: []byte(c), Sequential: true})
		if err != nil {
			return err
		}
		seqs[c] = rep.Path
		fmt.Printf("  candidate %s holds %s\n", c, rep.Path)
	}
	members, err := core.Call[dcs.PathArgs, dcs.ChildrenReply](dcsStub, dcs.MethodGetChildren,
		dcs.PathArgs{Path: "/election"})
	if err != nil {
		return err
	}
	winnerNode := "/election/" + members.Children[0]
	winner, err := core.Call[dcs.PathArgs, dcs.GetDataReply](dcsStub, dcs.MethodGetData,
		dcs.PathArgs{Path: winnerNode})
	if err != nil {
		return err
	}
	fmt.Printf("leader: %s (owns %s)\n", winner.Data, winnerNode)

	// Record the decision via real Paxos consensus for good measure.
	paxosStub, err := core.LookupStub("consensus", reg)
	if err != nil {
		return err
	}
	defer paxosStub.Close()
	decided, err := core.Call[paxos.ProposeArgs, paxos.ProposeReply](paxosStub, paxos.MethodPropose,
		paxos.ProposeArgs{Value: []byte("leader=" + string(winner.Data))})
	if err != nil {
		return err
	}
	fmt.Printf("consensus: slot %d decided %q\n", decided.Slot, decided.Value)

	syncRep, err := core.Call[core.Empty, dcs.SyncReply](dcsStub, dcs.MethodSync, core.Empty{})
	if err != nil {
		return err
	}
	fmt.Printf("dcs zxid: %d totally ordered updates applied\n", syncRep.Zxid)
	return nil
}
