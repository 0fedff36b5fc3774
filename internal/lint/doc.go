// Package lint is the ermi-vet analysis suite: mechanical enforcement of
// the invariants this codebase relies on but the compiler cannot see. It
// runs as a vettool (make lint, or directly:
//
//	go build -o bin/ermi-vet ./cmd/ermi-vet
//	go vet -vettool=$PWD/bin/ermi-vet ./...
//
// so it inherits go vet's per-package scheduling and build-cache result
// caching), and as a library through Analyze for the golden tests under
// testdata/src.
//
// # Analyzers
//
// payloadown enforces the arena ownership contract from the transport's
// memory pipeline: a handler that lets payload-derived memory (the raw
// Request.Payload or a zero-copy view decoded from it) escape its own
// lifetime — stored into a receiver, sent on a channel, captured by a
// spawned goroutine — must call req.Retain() first, because the arena
// recycles the slab when the call completes. It also checks the reply
// side: transport.Encode output returned without req.ReleaseReply = true
// leaks the reply slab out of the arena (the registry shipped exactly
// this leak until this suite caught it), and conversely payload-derived
// returns with ReleaseReply set would have the transport recycle a
// buffer the handler never owned.
//
// lockorder targets the blocking-under-mutex class found in the session
// layer (a network dial inside a mutex that every cached read takes,
// stalling the node for a full dial timeout): for a flagged set of
// hot-path mutexes it reports blocking operations — dials, RPC calls and
// waits, sleeps, file syncs, unguarded channel operations — reachable
// while the lock is held, including through same-package callees, plus
// re-acquisition self-deadlocks and inconsistent acquisition orders
// between flagged mutex pairs. Read-locked (RLock) regions are exempt
// from the blocking check: shared holders don't serialize each other.
//
// codecstrict reports decoded view values stored into long-lived memory
// without the sanctioned copy idiom (append([]byte(nil), v...)) — the
// aliasing bug the ERMIViews marker exists to make visible. Generated
// files are skipped. It no longer checks the annotations themselves: a
// shape the generator rejects fails make generate-check with the
// generator's own error, and a payload type whose generated methods are
// missing does not compile against transport.Encode or core's typed call
// helpers.
//
// budgetprop checks that handlers thread the caller's budget through:
// a function taking a *transport.Request that issues a downstream
// Call/CallDecode must derive the timeout argument (the wire budget)
// from req.Budget or req.Deadline. Without propagation a chain of hops
// can outlive the deadline the original caller is still waiting on.
// OneWay sends are exempt (nothing upstream is waiting).
//
// goroleak reports two goroutine shapes that can never terminate: a
// spawned loop that blocks on channel operations but contains no exit at
// all — no return, no break out of the loop, no stop-channel select case
// — and a spawned send on a provably unbuffered local channel whose only
// receiver selects it against other cases, so losing the race once parks
// the sender forever (the classic leaked-timeout-goroutine bug). Both
// are reported at the go statement, where the fix (a done case, a
// one-slot buffer) belongs.
//
// errdrop flags discarded errors from a curated list of calls whose
// failure silently voids a durability guarantee: wal.Log.Append and
// Commit, wal.SaveSnapshot, os.File.Sync and the store's snapshotNow.
// Dropping an ordinary error is style; dropping one of these means an
// acked write may not survive a crash. All discard forms are caught —
// bare call statement, blank assignment, defer and go — and the
// suppression directive is the sanctioned way to mark a deliberate
// best-effort site.
//
// exhaustive enforces closed enums across package boundaries: a constant
// set whose type declaration carries an //ermi:exhaustive marker (the
// transport's frameKind and respStatus) exports an enum fact, and every
// switch over such a type — in any package that imports it — must either
// name every member (by value, so aliases count) or carry an explicit
// default clause as the reader's signed statement that the remainder is
// handled. Adding a wire enum member without updating each reader is
// thereby a red build instead of a silently dropped frame.
//
// # True positives
//
// Real bugs each analyzer found in this tree (each fixed, with a fixture
// pinning its shape): payloadown 1 (the registry's leaked reply slabs);
// lockorder 3 (replication dials under kvstore's viewMu, Client.Close
// under mu, a superseded dial closed under viewMu); errdrop 1 (a dropped
// background-snapshot error). codecstrict, budgetprop, goroleak and
// exhaustive have none yet: the annotation-sync half of codecstrict was
// deleted once the compiler and make generate-check covered it, and the
// rest are candidates for the same once construction makes their bug
// unrepresentable.
//
// # Facts
//
// The suite is whole-program: each package's vet run exports a fact file
// (the .vetx path the go command hands dependents via PackageVetx) with
// per-function summaries — does it block, which flagged mutexes does it
// acquire, which parameter flows into a downstream budget, does it retain
// or release payload memory — plus the //ermi:exhaustive enum tables.
// Importing packages merge these facts before analysis, so lockorder sees
// a dial three calls deep in another package, budgetprop follows a budget
// through a cross-package helper, and exhaustive checks switches far from
// the enum's declaration. Every exported file embeds its own imports'
// facts, so direct-import files carry the transitive closure.
//
// The codec (facts.go) is versioned and total on hostile input: a fact
// file that is missing, truncated, bit-flipped or written by a different
// tool version decodes to an error, and the importer simply drops it —
// analysis degrades to package-local, losing cross-package findings but
// never inventing one. Encoding is deterministic (sorted keys), which the
// go command's content-addressed build cache turns into stable cache
// hits; `make lint` prints the resulting hit rate and `make
// lint-cache-check` gates it.
//
// # Suppression
//
// A finding that is intentional is silenced in place:
//
//	//ermi:ignore <analyzer> <reason>
//
// on the offending line or the line above. The reason is mandatory —
// a directive without one (or naming an unknown analyzer) is itself
// reported — so every suppression documents why the invariant does not
// apply at that site.
//
// # Adding an analyzer
//
// Declare a *Analyzer (Name, Doc, Run), register it in All, and add a
// fixture package under testdata/src/<name> with `// want "regexp"`
// comments pinning each diagnostic; fixtures may import each other, and
// linttest builds facts for a fixture's dependencies in load order, so
// cross-package behavior is testable (see testdata/src/cross); linttest.Run fails on both missed
// wants and unexpected findings, so every fixture carries the mutant and
// the fixed form of its invariant. The framework is self-contained
// (stdlib only — the build environment pins the module graph, so the
// golang.org/x/tools/go/analysis machinery is reimplemented in the few
// hundred lines this suite needs), but the Analyzer/Pass/Diagnostic
// shapes mirror go/analysis closely enough that porting an analyzer
// over is mechanical if the dependency ever lands.
package lint
