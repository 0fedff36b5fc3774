// Example: Hedwig-style topic-based publish/subscribe (paper §5.2) on
// ElasticRMI. Hubs partition topic ownership; delivery is at-most-once; the
// pool scales with the undelivered backlog.
//
// Run with:
//
//	go run ./examples/pubsub
package main

import (
	"fmt"
	"log"
	"time"

	"elasticrmi/internal/apps/hedwig"
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
	mgr, err := cluster.New(cluster.Config{Nodes: 8, SlicesPerNode: 1})
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

	pool, err := core.NewPool(core.Config{
		Name:          "hedwig",
		MinPoolSize:   3,
		MaxPoolSize:   6,
		BurstInterval: 5 * time.Second,
	}, hedwig.New(hedwig.Config{}), core.Deps{Cluster: mgr, Store: store, Registry: reg})
	if err != nil {
		return err
	}
	defer pool.Close()
	fmt.Printf("hedwig region up: %d hubs\n", pool.Size())

	stub, err := core.LookupStub("hedwig", reg)
	if err != nil {
		return err
	}
	defer stub.Close()

	// Subscribers come first (Hedwig delivers messages published after the
	// subscription).
	for _, sub := range []string{"alice", "bob"} {
		if _, err := core.Call[hedwig.SubArgs, hedwig.SubReply](stub, hedwig.MethodSubscribe,
			hedwig.SubArgs{Topic: "market-data", Subscriber: sub}); err != nil {
			return err
		}
	}
	fmt.Println("alice and bob subscribed to market-data")

	// Show topic ownership: a pure function of the roster.
	owner, err := core.Call[hedwig.TopicArgs, hedwig.OwnerReply](stub, hedwig.MethodOwner,
		hedwig.TopicArgs{Topic: "market-data"})
	if err != nil {
		return err
	}
	fmt.Printf("topic market-data owned by hub uid %d (%s)\n", owner.OwnerUID, owner.OwnerAddr)

	for i := 0; i < 6; i++ {
		rep, err := core.Call[hedwig.PublishArgs, hedwig.PublishReply](stub, hedwig.MethodPublish,
			hedwig.PublishArgs{Topic: "market-data", Body: []byte(fmt.Sprintf("tick %d", i))})
		if err != nil {
			return err
		}
		fmt.Printf("published seq %d\n", rep.Seq)
	}

	for _, sub := range []string{"alice", "bob"} {
		rep, err := core.Call[hedwig.ConsumeArgs, hedwig.ConsumeReply](stub, hedwig.MethodConsume,
			hedwig.ConsumeArgs{Topic: "market-data", Subscriber: sub, Max: 10})
		if err != nil {
			return err
		}
		fmt.Printf("%s consumed %d messages:", sub, len(rep.Messages))
		for _, m := range rep.Messages {
			fmt.Printf(" [%d]%s", m.Seq, m.Body)
		}
		fmt.Println()
		// A second consume returns nothing: at-most-once delivery.
		again, err := core.Call[hedwig.ConsumeArgs, hedwig.ConsumeReply](stub, hedwig.MethodConsume,
			hedwig.ConsumeArgs{Topic: "market-data", Subscriber: sub, Max: 10})
		if err != nil {
			return err
		}
		fmt.Printf("%s consumed again: %d messages (at-most-once)\n", sub, len(again.Messages))
	}

	bl, err := core.Call[core.Empty, hedwig.BacklogReply](stub, hedwig.MethodBacklog, core.Empty{})
	if err != nil {
		return err
	}
	fmt.Printf("region backlog: %d undelivered over %d topics\n", bl.Undelivered, bl.Topics)
	return nil
}
