package kvstore

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"elasticrmi/internal/route"
)

// ownerAddr resolves the member address owning key under tab.
func ownerAddr(tab route.Table, key string) string {
	return tab.Members[route.BuildRing(tab).Owner(key)].Addr
}

// TestAddNodeMigratesLocks is the regression test for the lock-migration
// hole: AddNode moved data but not the lock table, so a held lock whose
// routed owner changed appeared free on the new node and a second owner
// could enter the same critical section during a scale-out.
func TestAddNodeMigratesLocks(t *testing.T) {
	cl, err := NewCluster(2, nil)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cl.Close()

	const n = 32
	for i := 0; i < n; i++ {
		if err := cl.TryLock(fmt.Sprintf("L%02d", i), "alice", time.Minute); err != nil {
			t.Fatalf("TryLock L%02d: %v", i, err)
		}
	}
	before := cl.Table()
	if err := cl.AddNode(); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	after := cl.Table()

	moved := 0
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("L%02d", i)
		if ownerAddr(before, lockRouteKey(name)) != ownerAddr(after, lockRouteKey(name)) {
			moved++
		}
		// Held is held, whether or not the lock's shard moved.
		if err := cl.TryLock(name, "bob", time.Minute); !errors.Is(err, ErrLockHeld) {
			t.Fatalf("TryLock(bob, %s) after AddNode = %v, want ErrLockHeld (lock table must migrate)", name, err)
		}
		if err := cl.Unlock(name, "alice"); err != nil {
			t.Fatalf("Unlock(alice, %s) after AddNode: %v", name, err)
		}
	}
	if moved == 0 {
		t.Fatal("no lock shard moved during AddNode; test exercised nothing")
	}
}

// TestRemoveNodeHandsOffDataAndLocks: planned scale-in hands every shard —
// values with versions and held leases — to the survivors before the node
// departs, even at R=1.
func TestRemoveNodeHandsOffDataAndLocks(t *testing.T) {
	cl, err := NewCluster(3, nil)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cl.Close()

	const n = 48
	vers := make(map[string]uint64)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%03d", i)
		cl.Put(key, []byte("a"))
		v, err := cl.Put(key, []byte(fmt.Sprintf("v%d", i)))
		if err != nil {
			t.Fatalf("Put: %v", err)
		}
		vers[key] = v
	}
	if err := cl.TryLock("L", "alice", time.Minute); err != nil {
		t.Fatalf("TryLock: %v", err)
	}
	// Remove the node owning the lock's shard — the hardest case.
	victim := ownerAddr(cl.Table(), lockRouteKey("L"))
	if err := cl.RemoveNode(victim); err != nil {
		t.Fatalf("RemoveNode: %v", err)
	}
	if cl.Nodes() != 2 {
		t.Fatalf("nodes = %d, want 2", cl.Nodes())
	}
	for key, want := range vers {
		got, err := cl.Get(key)
		if err != nil {
			t.Fatalf("Get(%s) after RemoveNode: %v", key, err)
		}
		if got.Version != want {
			t.Fatalf("Get(%s) version = %d, want %d (handoff must preserve versions)", key, got.Version, want)
		}
	}
	if err := cl.TryLock("L", "bob", time.Minute); !errors.Is(err, ErrLockHeld) {
		t.Fatalf("TryLock(bob) after RemoveNode = %v, want ErrLockHeld", err)
	}
	if err := cl.Unlock("L", "alice"); err != nil {
		t.Fatalf("Unlock(alice) after RemoveNode: %v", err)
	}
	if err := cl.RemoveNode(victim); err == nil {
		t.Fatal("removing a departed node must fail")
	}
}

// TestCASPreservedAcrossMigration: after AddNode and RemoveNode move a
// key, CompareAndSwap with the pre-migration version still succeeds
// through the cluster router — migration preserves versions end to end.
func TestCASPreservedAcrossMigration(t *testing.T) {
	cl, err := NewCluster(2, nil)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cl.Close()

	const n = 64
	vers := make(map[string]uint64)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("cas-%03d", i)
		cl.Put(key, []byte("one"))
		v, err := cl.Put(key, []byte("two"))
		if err != nil {
			t.Fatalf("Put: %v", err)
		}
		vers[key] = v
	}
	before := cl.Table()
	if err := cl.AddNode(); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	after := cl.Table()

	movedKey := ""
	for key := range vers {
		if ownerAddr(before, key) != ownerAddr(after, key) {
			movedKey = key
			break
		}
	}
	if movedKey == "" {
		t.Fatal("no key moved during AddNode; test exercised nothing")
	}
	v2, err := cl.CompareAndSwap(movedKey, []byte("three"), vers[movedKey])
	if err != nil {
		t.Fatalf("CAS(%s, pre-migration version %d) after AddNode: %v", movedKey, vers[movedKey], err)
	}

	// And again across a planned removal of the key's current owner.
	if err := cl.RemoveNode(ownerAddr(cl.Table(), movedKey)); err != nil {
		t.Fatalf("RemoveNode: %v", err)
	}
	if _, err := cl.CompareAndSwap(movedKey, []byte("four"), v2); err != nil {
		t.Fatalf("CAS(%s, version %d) after RemoveNode: %v", movedKey, v2, err)
	}
	if _, err := cl.CompareAndSwap(movedKey, []byte("stale"), vers[movedKey]); !errors.Is(err, ErrCASMismatch) {
		t.Fatalf("stale CAS = %v, want ErrCASMismatch", err)
	}
}

// TestStableUIDsAcrossMembershipChanges: ring identity is a monotonic
// per-cluster counter, so removing and adding nodes can never alias two
// distinct nodes onto one UID.
func TestStableUIDsAcrossMembershipChanges(t *testing.T) {
	cl, err := NewCluster(3, nil)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cl.Close()

	uidsByAddr := func() map[string]int64 {
		out := make(map[string]int64)
		for _, m := range cl.Table().Members {
			out[m.Addr] = m.UID
		}
		return out
	}
	seen := make(map[int64]string) // uid -> addr first carrying it
	record := func() {
		for addr, uid := range uidsByAddr() {
			if prev, ok := seen[uid]; ok && prev != addr {
				t.Fatalf("UID %d aliased: first %s, now %s", uid, prev, addr)
			}
			seen[uid] = addr
		}
	}
	record()
	before := uidsByAddr()
	victim := cl.Addrs()[1]
	if err := cl.RemoveNode(victim); err != nil {
		t.Fatalf("RemoveNode: %v", err)
	}
	if err := cl.AddNode(); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	record()
	for addr, uid := range uidsByAddr() {
		if prev, ok := before[addr]; ok && prev != uid {
			t.Fatalf("surviving node %s changed UID %d -> %d", addr, prev, uid)
		}
	}
}

// TestReplicationWritesReachBackups: with R=2, every acknowledged write
// (data and lock) is present on exactly two node-local stores.
func TestReplicationWritesReachBackups(t *testing.T) {
	cl, err := NewReplicated(3, 2, nil)
	if err != nil {
		t.Fatalf("NewReplicated: %v", err)
	}
	defer cl.Close()

	const n = 32
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("rep-%03d", i)
		if _, err := cl.Put(key, []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
		copies := 0
		for _, nd := range cl.nodes {
			if _, err := nd.srv.store.Get(key); err == nil {
				copies++
			}
		}
		if copies != 2 {
			t.Fatalf("%s present on %d nodes, want 2 (primary + backup)", key, copies)
		}
	}
	if err := cl.TryLock("L", "alice", time.Minute); err != nil {
		t.Fatalf("TryLock: %v", err)
	}
	holders := 0
	for _, nd := range cl.nodes {
		if owner, held := nd.srv.store.LockOwner("L"); held && owner == "alice" {
			holders++
		}
	}
	if holders != 2 {
		t.Fatalf("lock lease on %d nodes, want 2", holders)
	}
}

// TestCrashFailoverReplicated: killing one node of an R=2 cluster loses no
// acknowledged write and no held lock; the router promotes backups on the
// first failed operation and the cluster keeps serving.
func TestCrashFailoverReplicated(t *testing.T) {
	cl, err := NewReplicated(3, 2, nil)
	if err != nil {
		t.Fatalf("NewReplicated: %v", err)
	}
	defer cl.Close()

	const n = 64
	vers := make(map[string]uint64)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("f-%03d", i)
		v, err := cl.Put(key, []byte(fmt.Sprintf("v%d", i)))
		if err != nil {
			t.Fatalf("Put: %v", err)
		}
		vers[key] = v
	}
	if err := cl.TryLock("L", "alice", time.Minute); err != nil {
		t.Fatalf("TryLock: %v", err)
	}
	// Kill the node that is primary for the lock — failover must promote
	// the backup that holds the replicated lease.
	victim := ownerAddr(cl.Table(), lockRouteKey("L"))
	if err := cl.CrashNode(victim); err != nil {
		t.Fatalf("CrashNode: %v", err)
	}
	for key, want := range vers {
		got, err := cl.Get(key)
		if err != nil {
			t.Fatalf("Get(%s) after crash: %v", key, err)
		}
		if got.Version != want {
			t.Fatalf("Get(%s) version = %d, want %d (acked write lost)", key, got.Version, want)
		}
	}
	if err := cl.TryLock("L", "bob", time.Minute); !errors.Is(err, ErrLockHeld) {
		t.Fatalf("TryLock(bob) after crash = %v, want ErrLockHeld (lease must survive failover)", err)
	}
	if err := cl.Unlock("L", "alice"); err != nil {
		t.Fatalf("Unlock(alice) after crash: %v", err)
	}
	if cl.Nodes() != 2 {
		t.Fatalf("nodes = %d, want 2 after failover", cl.Nodes())
	}
	// The cluster is fully writable afterwards, including re-replication.
	if _, err := cl.Put("post-crash", []byte("x")); err != nil {
		t.Fatalf("Put after failover: %v", err)
	}
}

// TestDeleteNotResurrectedByRebalance: a node holding a stale pre-delete
// copy of a key (a missed cleanup or forward) must not resurrect the key
// when a membership change merges every node's state — the deletion's
// tombstone outranks it.
func TestDeleteNotResurrectedByRebalance(t *testing.T) {
	cl, err := NewCluster(2, nil)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cl.Close()

	if _, err := cl.Put("zombie", []byte("alive")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := cl.Delete("zombie"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	// Plant the stale copy on the non-owner node, simulating a replica that
	// missed the delete.
	stale := cl.nodes[1-cl.ring.Owner("zombie")]
	mustApply(t, stale.srv.store, entryRec("zombie", entry{value: []byte("alive"), version: 1}))

	if err := cl.AddNode(); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if _, err := cl.Get("zombie"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after rebalance = %v, want ErrNotFound (deleted key resurrected)", err)
	}
	keys, err := cl.Keys("zom")
	if err != nil || len(keys) != 0 {
		t.Fatalf("Keys = %v, %v; deleted key must stay invisible", keys, err)
	}
}

// TestReplFailureTriggersRepair: a write whose backup forward fails must
// not leave the cluster silently under-replicated — the repl-failure hook
// probes the accused backup and fails it over, without any client
// operation ever routing to the dead node.
func TestReplFailureTriggersRepair(t *testing.T) {
	cl, err := NewReplicated(2, 2, nil)
	if err != nil {
		t.Fatalf("NewReplicated: %v", err)
	}
	defer cl.Close()

	// Crash the node that is NOT the key's primary: the only way the
	// router can learn of this death is the primary's failed forward.
	key := "repair-probe-key"
	primary := cl.nodes[cl.ring.Owner(key)]
	var backup *clusterNode
	for _, n := range cl.nodes {
		if n != primary {
			backup = n
		}
	}
	if err := backup.srv.Close(); err != nil {
		t.Fatalf("crash backup: %v", err)
	}
	if _, err := cl.Put(key, []byte("v")); err != nil {
		t.Fatalf("Put with dead backup: %v (write must still be acknowledged)", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for cl.Nodes() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("nodes = %d, want 1: replication failure never triggered failover", cl.Nodes())
		}
		time.Sleep(time.Millisecond)
	}
	if got, err := cl.Get(key); err != nil || string(got.Value) != "v" {
		t.Fatalf("Get after repair = %+v, %v", got, err)
	}
}

// TestKeysFailsOver: the cross-shard key scan (backing State.Fields) rides
// out a node crash like keyed operations do.
func TestKeysFailsOver(t *testing.T) {
	cl, err := NewReplicated(3, 2, nil)
	if err != nil {
		t.Fatalf("NewReplicated: %v", err)
	}
	defer cl.Close()
	const n = 24
	for i := 0; i < n; i++ {
		if _, err := cl.Put(fmt.Sprintf("scan-%02d", i), []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := cl.CrashNode(cl.Addrs()[2]); err != nil {
		t.Fatalf("CrashNode: %v", err)
	}
	keys, err := cl.Keys("scan-")
	if err != nil {
		t.Fatalf("Keys after crash: %v", err)
	}
	if len(keys) != n {
		t.Fatalf("Keys after crash = %d, want %d", len(keys), n)
	}
	if cl.Nodes() != 2 {
		t.Fatalf("nodes = %d, want 2 (scan must fail the dead node over)", cl.Nodes())
	}
}
