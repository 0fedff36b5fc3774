// Package apps_test benchmarks the four evaluation applications end to end
// on live elastic pools over loopback TCP: the per-operation costs behind
// the paper's QoS metrics (order routing latency, publish latency,
// consensus round time, coordination update latency).
package apps_test

import (
	"fmt"
	"testing"
	"time"

	"elasticrmi/internal/apps/dcs"
	"elasticrmi/internal/apps/hedwig"
	"elasticrmi/internal/apps/marketcetera"
	"elasticrmi/internal/apps/paxos"
	"elasticrmi/internal/core"
	"elasticrmi/internal/ermitest"
)

func benchPool(b *testing.B, name string, factory core.Factory) *core.Stub {
	b.Helper()
	env := ermitest.New(b, 8)
	env.StartPool(b, core.Config{
		Name: name, MinPoolSize: 3, MaxPoolSize: 3,
		BurstInterval: time.Hour, DisableBroadcast: true,
	}, factory)
	return env.Stub(b, name)
}

// BenchmarkMarketceteraRoute: one order routed and persisted on two nodes.
func BenchmarkMarketceteraRoute(b *testing.B) {
	stub := benchPool(b, "bench-routing", marketcetera.New(marketcetera.Config{}))
	if _, err := core.Call[marketcetera.Venue, marketcetera.AddVenueReply](stub, marketcetera.MethodAddVenue,
		marketcetera.Venue{Name: "X"}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := marketcetera.Order{
			ID: marketcetera.OrderID("bench", int64(i)), Trader: "bench",
			Symbol: "SYM", Side: marketcetera.Buy, Qty: 100,
		}
		if _, err := core.Call[marketcetera.Order, marketcetera.Receipt](stub, marketcetera.MethodRoute, o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHedwigPublish: one message appended to a topic log.
func BenchmarkHedwigPublish(b *testing.B) {
	stub := benchPool(b, "bench-hedwig", hedwig.New(hedwig.Config{}))
	body := []byte("payload-0123456789")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Call[hedwig.PublishArgs, hedwig.PublishReply](stub, hedwig.MethodPublish,
			hedwig.PublishArgs{Topic: "t", Body: body}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHedwigPublishConsume: full produce-then-claim cycle for one
// subscriber (at-most-once cursor advance included).
func BenchmarkHedwigPublishConsume(b *testing.B) {
	stub := benchPool(b, "bench-hedwig2", hedwig.New(hedwig.Config{}))
	if _, err := core.Call[hedwig.SubArgs, hedwig.SubReply](stub, hedwig.MethodSubscribe,
		hedwig.SubArgs{Topic: "t", Subscriber: "s"}); err != nil {
		b.Fatal(err)
	}
	body := []byte("x")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Call[hedwig.PublishArgs, hedwig.PublishReply](stub, hedwig.MethodPublish,
			hedwig.PublishArgs{Topic: "t", Body: body}); err != nil {
			b.Fatal(err)
		}
		rep, err := core.Call[hedwig.ConsumeArgs, hedwig.ConsumeReply](stub, hedwig.MethodConsume,
			hedwig.ConsumeArgs{Topic: "t", Subscriber: "s", Max: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Messages) != 1 {
			b.Fatalf("consumed %d messages", len(rep.Messages))
		}
	}
}

// BenchmarkPaxosPropose: one full consensus round (Prepare/Promise +
// Accept/Accepted + Decide) over the pool's peer messages.
func BenchmarkPaxosPropose(b *testing.B) {
	stub := benchPool(b, "bench-paxos", paxos.New(paxos.Config{}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		val := []byte(fmt.Sprintf("cmd-%d", i))
		rep, err := core.Call[paxos.ProposeArgs, paxos.ProposeReply](stub, paxos.MethodPropose,
			paxos.ProposeArgs{Value: val})
		if err != nil {
			b.Fatal(err)
		}
		if string(rep.Value) != string(val) {
			b.Fatalf("decided %q, want %q", rep.Value, val)
		}
	}
}

// BenchmarkDCSSetData: one totally ordered update under the per-path lock.
func BenchmarkDCSSetData(b *testing.B) {
	stub := benchPool(b, "bench-dcs", dcs.New(dcs.Config{}))
	if _, err := core.Call[dcs.CreateArgs, dcs.CreateReply](stub, dcs.MethodCreate,
		dcs.CreateArgs{Path: "/bench", Data: []byte("v")}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Call[dcs.SetDataArgs, dcs.SetDataReply](stub, dcs.MethodSetData,
			dcs.SetDataArgs{Path: "/bench", Data: []byte("v"), ExpectVersion: -1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDCSGetData: one read (no lock).
func BenchmarkDCSGetData(b *testing.B) {
	stub := benchPool(b, "bench-dcs2", dcs.New(dcs.Config{}))
	if _, err := core.Call[dcs.CreateArgs, dcs.CreateReply](stub, dcs.MethodCreate,
		dcs.CreateArgs{Path: "/bench", Data: []byte("v")}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Call[dcs.PathArgs, dcs.GetDataReply](stub, dcs.MethodGetData,
			dcs.PathArgs{Path: "/bench"}); err != nil {
			b.Fatal(err)
		}
	}
}
