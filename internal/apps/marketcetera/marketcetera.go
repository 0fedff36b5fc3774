// Package marketcetera re-implements the order-routing subsystem of the
// Marketcetera algorithmic-trading platform as an ElasticRMI elastic class
// (paper §5.2). The order routing system accepts orders from traders and
// automated strategy engines and routes them to markets, brokers and other
// financial intermediaries; for fault tolerance every order is persisted on
// two nodes before the routing receipt is returned.
//
// Elasticity is fine-grained (§3.3): ChangePoolSize inspects the order
// backlog and the observed routing latency — the application-specific
// signals a CPU threshold cannot see — to decide how many router objects to
// add or remove.
package marketcetera

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"elasticrmi/internal/core"
	"elasticrmi/internal/transport"
)

//go:generate go run elasticrmi/cmd/ermi-gen -in marketcetera.go -out marketcetera_ermi.go

// Side of an order.
type Side int

// Order sides.
const (
	Buy Side = iota + 1
	Sell
)

// String implements fmt.Stringer.
func (s Side) String() string {
	switch s {
	case Buy:
		return "BUY"
	case Sell:
		return "SELL"
	default:
		return "UNKNOWN"
	}
}

// Order is a trading order submitted by a trader or strategy engine. It is
// //ermi:codec-marked, so orders travel (and persist) in the generated
// binary encoding.
//
//ermi:codec
type Order struct {
	ID     string
	Trader string
	Symbol string
	Side   Side
	Qty    int64
	// LimitPrice in cents; 0 means a market order.
	LimitPrice int64
}

// Validate checks order well-formedness.
func (o Order) Validate() error {
	switch {
	case o.ID == "":
		return errors.New("order: empty ID")
	case o.Symbol == "":
		return errors.New("order: empty symbol")
	case o.Side != Buy && o.Side != Sell:
		return fmt.Errorf("order: bad side %d", o.Side)
	case o.Qty <= 0:
		return fmt.Errorf("order: non-positive quantity %d", o.Qty)
	case o.LimitPrice < 0:
		return fmt.Errorf("order: negative price %d", o.LimitPrice)
	default:
		return nil
	}
}

// Receipt acknowledges a routed order.
//
//ermi:codec
type Receipt struct {
	OrderID  string
	Venue    string
	RoutedBy int64 // member UID, for observability
}

// Venue is a market/broker destination with the symbols it lists. A venue
// listing no symbols is a default destination accepting anything.
//
//ermi:codec
type Venue struct {
	Name    string
	Symbols []string
}

// Remote method names.
const (
	// MethodRoute routes one order: "Route" (Order) -> Receipt.
	MethodRoute = "Route"
	// MethodAddVenue registers a destination: "AddVenue" (Venue) ->
	// AddVenueReply.
	MethodAddVenue = "AddVenue"
	// MethodVenues lists destinations: "Venues" (core.Empty) -> VenuesReply.
	MethodVenues = "Venues"
	// MethodStatus reports routing counters: "Status" (core.Empty) -> Status.
	MethodStatus = "Status"
)

// Replies of AddVenue and Venues.
//
//ermi:codec
type (
	// AddVenueReply acknowledges the registration.
	AddVenueReply struct{ Added bool }
	// VenuesReply lists the registered destinations.
	VenuesReply struct{ Venues []Venue }
)

// Status aggregates routing counters from the shared state.
//
//ermi:codec
type Status struct {
	Routed   int64
	Rejected int64
	ByVenue  map[string]int64
}

// Config tunes the router's elasticity logic.
type Config struct {
	// TargetLatency is the routing-latency QoS bound; above it the pool
	// grows. Default 5ms (in-process routing work).
	TargetLatency time.Duration
	// BacklogHigh is the per-member pending-order count that triggers
	// growth. Default 32.
	BacklogHigh int
	// IdleRate is the per-member Route rate (orders/s) below which the pool
	// shrinks. Default 10.
	IdleRate float64
}

func (c Config) withDefaults() Config {
	if c.TargetLatency == 0 {
		c.TargetLatency = 5 * time.Millisecond
	}
	if c.BacklogHigh == 0 {
		c.BacklogHigh = 32
	}
	if c.IdleRate == 0 {
		c.IdleRate = 10
	}
	return c
}

// Router is one member of the elastic order-routing pool.
type Router struct {
	ctx *core.MemberContext
	cfg Config
	mux *core.Mux

	pending atomic.Int64 // orders accepted but not yet fully persisted
}

var (
	_ core.Object    = (*Router)(nil)
	_ core.PoolSizer = (*Router)(nil)
)

// New creates the router factory for core.NewPool.
func New(cfg Config) core.Factory {
	cfg = cfg.withDefaults()
	return func(ctx *core.MemberContext) (core.Object, error) {
		r := &Router{ctx: ctx, cfg: cfg, mux: core.NewMux()}
		core.Handle(r.mux, MethodRoute, r.route)
		core.Handle(r.mux, MethodAddVenue, r.addVenue)
		core.Handle(r.mux, MethodVenues, r.listVenues)
		core.Handle(r.mux, MethodStatus, r.status)
		return r, nil
	}
}

// HandleCall implements core.Object.
func (r *Router) HandleCall(method string, arg []byte) ([]byte, error) {
	return r.mux.HandleCall(method, arg)
}

// HandleRequest implements core.RequestHandler: the skeleton dispatches
// through here so codec payload buffers keep their arena lifetime.
func (r *Router) HandleRequest(req *transport.Request) ([]byte, error) {
	return r.mux.HandleRequest(req)
}

// route picks the venue for the order, persists the order on two nodes and
// returns the receipt.
func (r *Router) route(o Order) (Receipt, error) {
	if err := o.Validate(); err != nil {
		_, _ = r.ctx.State.AddInt("rejected", 1)
		return Receipt{}, err
	}
	r.pending.Add(1)
	defer r.pending.Add(-1)

	venue, err := r.pickVenue(o.Symbol)
	if err != nil {
		_, _ = r.ctx.State.AddInt("rejected", 1)
		return Receipt{}, err
	}
	// Persist the order on two nodes for fault tolerance (§5.2): primary
	// and backup records hash to different store shards.
	rec := transport.Encode(&o)
	if err := r.ctx.State.PutBytes("order/"+o.ID+"/primary", rec); err != nil {
		return Receipt{}, fmt.Errorf("persist primary: %w", err)
	}
	if err := r.ctx.State.PutBytes("order/"+o.ID+"/backup", rec); err != nil {
		return Receipt{}, fmt.Errorf("persist backup: %w", err)
	}
	if _, err := r.ctx.State.AddInt("routed", 1); err != nil {
		return Receipt{}, err
	}
	if _, err := r.ctx.State.AddInt("venue/"+venue, 1); err != nil {
		return Receipt{}, err
	}
	return Receipt{OrderID: o.ID, Venue: venue, RoutedBy: r.ctx.UID}, nil
}

// pickVenue resolves the destination for a symbol: an explicit listing
// wins; otherwise any default venue (no symbol list) accepts the order,
// chosen deterministically by symbol hash so a symbol's flow is stable.
func (r *Router) pickVenue(symbol string) (string, error) {
	venues, err := r.loadVenues()
	if err != nil {
		return "", err
	}
	if len(venues) == 0 {
		return "", errors.New("route: no venues registered")
	}
	var defaults []string
	for _, v := range venues {
		if len(v.Symbols) == 0 {
			defaults = append(defaults, v.Name)
			continue
		}
		for _, s := range v.Symbols {
			if s == symbol {
				return v.Name, nil
			}
		}
	}
	if len(defaults) == 0 {
		return "", fmt.Errorf("route: no venue lists %q and no default venue", symbol)
	}
	sort.Strings(defaults)
	h := fnv.New32a()
	_, _ = h.Write([]byte(symbol))
	return defaults[int(h.Sum32())%len(defaults)], nil
}

func (r *Router) addVenue(v Venue) (AddVenueReply, error) {
	if v.Name == "" {
		return AddVenueReply{}, errors.New("venue: empty name")
	}
	// The venue table is shared state: all routers must see it.
	err := r.ctx.State.Synchronized(func() error {
		names, err := r.ctx.State.GetString("venue-names")
		if err != nil {
			return err
		}
		set := splitList(names)
		if !contains(set, v.Name) {
			set = append(set, v.Name)
			if err := r.ctx.State.PutString("venue-names", joinList(set)); err != nil {
				return err
			}
		}
		return r.ctx.State.PutString("venue-symbols/"+v.Name, joinList(v.Symbols))
	})
	if err != nil {
		return AddVenueReply{}, err
	}
	return AddVenueReply{Added: true}, nil
}

func (r *Router) loadVenues() ([]Venue, error) {
	names, err := r.ctx.State.GetString("venue-names")
	if err != nil {
		return nil, err
	}
	var out []Venue
	for _, name := range splitList(names) {
		syms, err := r.ctx.State.GetString("venue-symbols/" + name)
		if err != nil {
			return nil, err
		}
		out = append(out, Venue{Name: name, Symbols: splitList(syms)})
	}
	return out, nil
}

func (r *Router) listVenues(core.Empty) (VenuesReply, error) {
	venues, err := r.loadVenues()
	return VenuesReply{Venues: venues}, err
}

func (r *Router) status(core.Empty) (Status, error) {
	routed, err := r.ctx.State.GetInt("routed")
	if err != nil {
		return Status{}, err
	}
	rejected, err := r.ctx.State.GetInt("rejected")
	if err != nil {
		return Status{}, err
	}
	st := Status{Routed: routed, Rejected: rejected, ByVenue: make(map[string]int64)}
	venues, err := r.loadVenues()
	if err != nil {
		return Status{}, err
	}
	for _, v := range venues {
		n, err := r.ctx.State.GetInt("venue/" + v.Name)
		if err != nil {
			return Status{}, err
		}
		st.ByVenue[v.Name] = n
	}
	return st, nil
}

// ChangePoolSize implements core.PoolSizer with Marketcetera-specific
// signals: routing latency against the QoS target, the pending-order
// backlog, and idleness. It mirrors the structure of the paper's
// CacheExplicit2 example (Fig. 5).
func (r *Router) ChangePoolSize() int {
	stats := r.ctx.MethodCallStats()
	route, ok := stats[MethodRoute]
	if !ok || route.Calls == 0 {
		// No routing traffic at all last interval: shrink.
		return -1
	}
	backlog := int(r.pending.Load())
	switch {
	case route.AvgLatency > 2*r.cfg.TargetLatency || backlog > 2*r.cfg.BacklogHigh:
		return 2
	case route.AvgLatency > r.cfg.TargetLatency || backlog > r.cfg.BacklogHigh:
		return 1
	case route.RatePerSec < r.cfg.IdleRate && backlog == 0:
		return -1
	default:
		return 0
	}
}

// Pending reports orders currently being persisted on this member.
func (r *Router) Pending() int64 { return r.pending.Load() }

// RouteAsync pipelines an order through the elastic routing pool: a
// strategy engine submits its whole burst without waiting for receipts,
// then collects them — the two-node persistence of each order overlaps with
// the submission of the next instead of serializing behind it.
func RouteAsync(s *core.Stub, o Order) *core.Future[Receipt] {
	return core.GoCall[Order, Receipt](s, MethodRoute, o)
}

// list encoding helpers: the shared store holds flat strings.

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

func joinList(items []string) string {
	return strings.Join(items, ",")
}

func contains(items []string, s string) bool {
	for _, it := range items {
		if it == s {
			return true
		}
	}
	return false
}

// OrderID builds a unique order identifier from trader and sequence.
func OrderID(trader string, seq int64) string {
	return trader + "-" + strconv.FormatInt(seq, 10)
}
