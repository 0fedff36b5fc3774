package marketcetera_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"elasticrmi/internal/apps/marketcetera"
	"elasticrmi/internal/core"
	"elasticrmi/internal/ermitest"
	"elasticrmi/internal/transport"
)

func startRouting(t *testing.T) (*core.Pool, *core.Stub) {
	t.Helper()
	env := ermitest.New(t, 8)
	pool := env.StartPool(t, core.Config{
		Name: "order-routing", MinPoolSize: 2, MaxPoolSize: 6,
		BurstInterval: time.Hour, DisableBroadcast: true,
	}, marketcetera.New(marketcetera.Config{}))
	stub := env.Stub(t, "order-routing")
	return pool, stub
}

func addVenue(t *testing.T, stub *core.Stub, v marketcetera.Venue) {
	t.Helper()
	ok, err := core.Call[marketcetera.Venue, marketcetera.AddVenueReply](stub, marketcetera.MethodAddVenue, v)
	if err != nil || !ok.Added {
		t.Fatalf("AddVenue(%s): ok=%v err=%v", v.Name, ok.Added, err)
	}
}

func TestRouteToListedVenue(t *testing.T) {
	_, stub := startRouting(t)
	addVenue(t, stub, marketcetera.Venue{Name: "NYSE", Symbols: []string{"IBM", "GE"}})
	addVenue(t, stub, marketcetera.Venue{Name: "NASDAQ", Symbols: []string{"AAPL"}})
	addVenue(t, stub, marketcetera.Venue{Name: "DARKPOOL"})

	tests := []struct {
		symbol string
		want   string
	}{
		{"IBM", "NYSE"},
		{"GE", "NYSE"},
		{"AAPL", "NASDAQ"},
		{"ZZZ", "DARKPOOL"}, // unlisted goes to the default venue
	}
	for i, tc := range tests {
		o := marketcetera.Order{
			ID: marketcetera.OrderID("t1", int64(i)), Trader: "t1",
			Symbol: tc.symbol, Side: marketcetera.Buy, Qty: 100, LimitPrice: 1000,
		}
		rec, err := core.Call[marketcetera.Order, marketcetera.Receipt](stub, marketcetera.MethodRoute, o)
		if err != nil {
			t.Fatalf("Route(%s): %v", tc.symbol, err)
		}
		if rec.Venue != tc.want {
			t.Errorf("Route(%s) venue = %s, want %s", tc.symbol, rec.Venue, tc.want)
		}
		if rec.OrderID != o.ID {
			t.Errorf("receipt order = %s, want %s", rec.OrderID, o.ID)
		}
	}
}

func TestRouteValidation(t *testing.T) {
	_, stub := startRouting(t)
	addVenue(t, stub, marketcetera.Venue{Name: "X"})

	bad := []marketcetera.Order{
		{},
		{ID: "1", Symbol: "IBM", Side: marketcetera.Buy, Qty: 0},
		{ID: "2", Symbol: "", Side: marketcetera.Buy, Qty: 1},
		{ID: "3", Symbol: "IBM", Side: 0, Qty: 1},
		{ID: "4", Symbol: "IBM", Side: marketcetera.Sell, Qty: 5, LimitPrice: -1},
	}
	for _, o := range bad {
		if _, err := core.Call[marketcetera.Order, marketcetera.Receipt](stub, marketcetera.MethodRoute, o); err == nil {
			t.Errorf("Route(%+v): expected validation error", o)
		}
	}
	st, err := core.Call[core.Empty, marketcetera.Status](stub, marketcetera.MethodStatus, core.Empty{})
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st.Rejected != int64(len(bad)) {
		t.Errorf("rejected = %d, want %d", st.Rejected, len(bad))
	}
}

func TestOrdersPersistedOnTwoNodes(t *testing.T) {
	env := ermitest.New(t, 8)
	env.StartPool(t, core.Config{
		Name: "order-routing", MinPoolSize: 2, MaxPoolSize: 4,
		BurstInterval: time.Hour, DisableBroadcast: true,
	}, marketcetera.New(marketcetera.Config{}))
	stub := env.Stub(t, "order-routing")
	addVenue(t, stub, marketcetera.Venue{Name: "NYSE"})

	o := marketcetera.Order{ID: "t9-1", Trader: "t9", Symbol: "IBM", Side: marketcetera.Buy, Qty: 10}
	if _, err := core.Call[marketcetera.Order, marketcetera.Receipt](stub, marketcetera.MethodRoute, o); err != nil {
		t.Fatalf("Route: %v", err)
	}
	keys, err := env.Store.Keys("order-routing$order/t9-1")
	if err != nil {
		t.Fatalf("Keys: %v", err)
	}
	if len(keys) != 2 {
		t.Fatalf("order persisted on %d records, want 2 (primary+backup): %v", len(keys), keys)
	}
	var primary, backup bool
	for _, k := range keys {
		if strings.HasSuffix(k, "/primary") {
			primary = true
		}
		if strings.HasSuffix(k, "/backup") {
			backup = true
		}
	}
	if !primary || !backup {
		t.Fatalf("missing primary/backup copy: %v", keys)
	}
}

func TestStatusCountsByVenue(t *testing.T) {
	_, stub := startRouting(t)
	addVenue(t, stub, marketcetera.Venue{Name: "NYSE", Symbols: []string{"IBM"}})
	addVenue(t, stub, marketcetera.Venue{Name: "DEFAULT"})

	for i := 0; i < 10; i++ {
		sym := "IBM"
		if i%2 == 1 {
			sym = "MISC"
		}
		o := marketcetera.Order{
			ID: marketcetera.OrderID("s", int64(i)), Trader: "s",
			Symbol: sym, Side: marketcetera.Sell, Qty: 1,
		}
		if _, err := core.Call[marketcetera.Order, marketcetera.Receipt](stub, marketcetera.MethodRoute, o); err != nil {
			t.Fatalf("Route: %v", err)
		}
	}
	st, err := core.Call[core.Empty, marketcetera.Status](stub, marketcetera.MethodStatus, core.Empty{})
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st.Routed != 10 {
		t.Errorf("routed = %d, want 10", st.Routed)
	}
	if st.ByVenue["NYSE"] != 5 || st.ByVenue["DEFAULT"] != 5 {
		t.Errorf("per-venue counts = %v, want 5/5", st.ByVenue)
	}
}

func TestConcurrentRouting(t *testing.T) {
	_, stub := startRouting(t)
	addVenue(t, stub, marketcetera.Venue{Name: "V"})

	const workers, perWorker = 8, 20
	var wg sync.WaitGroup
	errCh := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				o := marketcetera.Order{
					ID:     marketcetera.OrderID(fmt.Sprintf("w%d", w), int64(i)),
					Trader: "w", Symbol: "SYM", Side: marketcetera.Buy, Qty: 1,
				}
				if _, err := core.Call[marketcetera.Order, marketcetera.Receipt](stub, marketcetera.MethodRoute, o); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatalf("concurrent route: %v", err)
	}
	st, err := core.Call[core.Empty, marketcetera.Status](stub, marketcetera.MethodStatus, core.Empty{})
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st.Routed != workers*perWorker {
		t.Errorf("routed = %d, want %d", st.Routed, workers*perWorker)
	}
}

func TestRouteWithoutVenuesFails(t *testing.T) {
	_, stub := startRouting(t)
	o := marketcetera.Order{ID: "x-1", Trader: "x", Symbol: "IBM", Side: marketcetera.Buy, Qty: 1}
	_, err := core.Call[marketcetera.Order, marketcetera.Receipt](stub, marketcetera.MethodRoute, o)
	if err == nil {
		t.Fatal("expected error with no venues registered")
	}
	if errors.Is(err, core.ErrUnavailable) {
		t.Fatalf("application error misclassified as unavailability: %v", err)
	}
}

// TestRouteAsyncPipelinesOrderFlow: a strategy engine submits its whole
// burst through InvokeAsync before collecting receipts; every order must be
// routed exactly once and persisted on both nodes, exactly as in the
// synchronous path.
func TestRouteAsyncPipelinesOrderFlow(t *testing.T) {
	_, stub := startRouting(t)
	addVenue(t, stub, marketcetera.Venue{Name: "ARCA"})

	const n = 64
	futures := make([]core.AsyncCall, n)
	for i := 0; i < n; i++ {
		futures[i] = stub.InvokeAsync(marketcetera.MethodRoute, transport.Encode(&marketcetera.Order{
			ID:     marketcetera.OrderID("engine", int64(i)),
			Trader: "engine", Symbol: "IBM", Side: marketcetera.Buy, Qty: 10,
		}))
	}
	for i, f := range futures {
		var rec marketcetera.Receipt
		if err := f.Decode(&rec); err != nil {
			t.Fatalf("order %d: %v", i, err)
		}
		if rec.OrderID != marketcetera.OrderID("engine", int64(i)) || rec.Venue != "ARCA" {
			t.Fatalf("order %d receipt = %+v", i, rec)
		}
	}
	st, err := core.Call[core.Empty, marketcetera.Status](stub, marketcetera.MethodStatus, core.Empty{})
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st.Routed != n || st.ByVenue["ARCA"] != n {
		t.Fatalf("status = %+v, want %d routed via ARCA", st, n)
	}
}

// TestRouteAsyncRejectsBadOrderThroughFuture: application errors propagate
// through the async pipeline without being retried on other members.
func TestRouteAsyncRejectsBadOrderThroughFuture(t *testing.T) {
	_, stub := startRouting(t)
	addVenue(t, stub, marketcetera.Venue{Name: "ARCA"})
	bad := transport.Encode(&marketcetera.Order{ID: "", Symbol: "IBM", Side: marketcetera.Buy, Qty: 1})
	err := stub.InvokeAsync(marketcetera.MethodRoute, bad).Decode(&marketcetera.Receipt{})
	if err == nil || !strings.Contains(err.Error(), "empty ID") {
		t.Fatalf("err = %v, want validation error through future", err)
	}
	st, err := core.Call[core.Empty, marketcetera.Status](stub, marketcetera.MethodStatus, core.Empty{})
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st.Rejected != 1 {
		t.Fatalf("rejected = %d, want exactly 1 (no retry of an app error)", st.Rejected)
	}
}
