// Package elasticrmi is a from-scratch Go reproduction of "Elastic Remote
// Methods" (K. R. Jayaram, MIDDLEWARE 2013): a middleware for elastic
// distributed objects, where a remote class is instantiated into a pool of
// objects that behaves toward clients as a single remote object, and the
// runtime grows and shrinks the pool from coarse-grained (CPU/RAM) or
// fine-grained (application-defined) workload signals.
//
// The implementation lives under internal/:
//
//   - internal/core — the ElasticRMI runtime (pools, stubs, skeletons,
//     sentinel, scaling policies, registry, shared state).
//   - internal/route — the epoch-versioned routing layer: membership
//     tables stamped by the pool runtime, the consistent-hash ring, and
//     the client-side pickers (round-robin, power-of-two-choices,
//     key affinity) stubs balance with.
//   - internal/transport, internal/kvstore, internal/cluster,
//     internal/metrics, internal/simclock — the substrates (wire protocol
//     with piggybacked route updates, HyperDex-like store, Mesos-like
//     cluster manager, workload metering, virtual time).
//   - internal/apps — the evaluation applications (Marketcetera order
//     routing, Hedwig pub/sub, Paxos, DCS) plus the paper's running cache
//     example.
//   - internal/workload, internal/agility, internal/benchsim — the
//     evaluation harness reproducing every figure of the paper.
//
// Programs: cmd/ermi is the operations binary (ermi registry, ermi admin,
// ermi demo); cmd/ermi-gen and cmd/ermi-vet are the code generator and the
// vettool that go generate and go vet invoke; cmd/ermi-bench regenerates
// the paper's figures from the simulator; examples/quickstart is the
// smallest complete program.
//
// See README.md for a tour of the packages, the synchronous/asynchronous
// invocation API and the test harness. The benchmarks in bench_test.go
// regenerate the paper's figures plus the live-runtime microbenchmarks:
//
//	go test -bench=. -benchmem .
//
// The end-to-end benchmark is the separate module under benchmark/:
//
//	python3 benchmark/run.py --workload rmi-echo --seed 1 --seconds 6 --trace 1
//
// Every number README.md quotes comes from such a run, stated with its
// command and date; rows the harness does not print yet are named by their
// go test -bench target instead.
package elasticrmi
