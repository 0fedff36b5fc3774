// Example: Marketcetera-style order routing (paper §5.2) on ElasticRMI. An
// elastic pool of order routers accepts trading orders, persists each on
// two nodes and routes it to the right venue; the pool grows and shrinks
// with the order backlog and routing latency.
//
// Run with:
//
//	go run ./examples/trading
package main

import (
	"fmt"
	"log"
	"time"

	"elasticrmi/internal/apps/marketcetera"
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
		Name:          "order-routing",
		MinPoolSize:   2,
		MaxPoolSize:   6,
		BurstInterval: 5 * time.Second,
	}, marketcetera.New(marketcetera.Config{}), core.Deps{
		Cluster: mgr, Store: store, Registry: reg,
	})
	if err != nil {
		return err
	}
	defer pool.Close()
	fmt.Printf("order-routing pool up: %d routers\n", pool.Size())

	stub, err := core.LookupStub("order-routing", reg)
	if err != nil {
		return err
	}
	defer stub.Close()

	// Register venues: two listings plus a default destination.
	venues := []marketcetera.Venue{
		{Name: "NYSE", Symbols: []string{"IBM", "GE", "KO"}},
		{Name: "NASDAQ", Symbols: []string{"AAPL", "MSFT", "GOOG"}},
		{Name: "IEX"}, // accepts anything
	}
	for _, v := range venues {
		if _, err := core.Call[marketcetera.Venue, marketcetera.AddVenueReply](stub, marketcetera.MethodAddVenue, v); err != nil {
			return err
		}
	}
	fmt.Println("venues registered: NYSE, NASDAQ, IEX (default)")

	// A strategy engine submits a burst of orders.
	symbols := []string{"IBM", "AAPL", "GE", "MSFT", "KO", "GOOG", "TSLA", "AMZN"}
	for i := 0; i < 24; i++ {
		o := marketcetera.Order{
			ID:         marketcetera.OrderID("strategy-1", int64(i)),
			Trader:     "strategy-1",
			Symbol:     symbols[i%len(symbols)],
			Side:       marketcetera.Side(i%2 + 1),
			Qty:        int64(100 * (i + 1)),
			LimitPrice: int64(10000 + 13*i),
		}
		rec, err := core.Call[marketcetera.Order, marketcetera.Receipt](stub, marketcetera.MethodRoute, o)
		if err != nil {
			return fmt.Errorf("route %s: %w", o.ID, err)
		}
		if i < 8 {
			fmt.Printf("  %-14s %-4s %4s x%-5d -> %-7s (router uid %d)\n",
				rec.OrderID, o.Side, o.Symbol, o.Qty, rec.Venue, rec.RoutedBy)
		}
	}
	fmt.Println("  ... 16 more orders ...")

	st, err := core.Call[core.Empty, marketcetera.Status](stub, marketcetera.MethodStatus, core.Empty{})
	if err != nil {
		return err
	}
	fmt.Printf("status: routed=%d rejected=%d per-venue=%v\n", st.Routed, st.Rejected, st.ByVenue)
	fmt.Println("every order is persisted on two nodes (primary+backup) before its receipt")
	return nil
}
