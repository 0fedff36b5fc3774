package dcs_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"elasticrmi/internal/apps/dcs"
	"elasticrmi/internal/core"
	"elasticrmi/internal/ermitest"
)

func startDCS(t *testing.T) (*core.Pool, *core.Stub) {
	t.Helper()
	env := ermitest.New(t, 8)
	pool := env.StartPool(t, core.Config{
		Name: "dcs", MinPoolSize: 2, MaxPoolSize: 5,
		BurstInterval: time.Hour, DisableBroadcast: true,
	}, dcs.New(dcs.Config{}))
	stub := env.Stub(t, "dcs")
	return pool, stub
}

func create(t *testing.T, stub *core.Stub, path string, data string) dcs.CreateReply {
	t.Helper()
	rep, err := core.Call[dcs.CreateArgs, dcs.CreateReply](stub, dcs.MethodCreate,
		dcs.CreateArgs{Path: path, Data: []byte(data)})
	if err != nil {
		t.Fatalf("Create(%s): %v", path, err)
	}
	return rep
}

func TestCreateGetSetDelete(t *testing.T) {
	_, stub := startDCS(t)
	create(t, stub, "/app", "cfg")

	got, err := core.Call[dcs.PathArgs, dcs.GetDataReply](stub, dcs.MethodGetData, dcs.PathArgs{Path: "/app"})
	if err != nil {
		t.Fatalf("GetData: %v", err)
	}
	if string(got.Data) != "cfg" || got.Stat.Version != 0 {
		t.Fatalf("GetData = %q v%d, want cfg v0", got.Data, got.Stat.Version)
	}

	set, err := core.Call[dcs.SetDataArgs, dcs.SetDataReply](stub, dcs.MethodSetData,
		dcs.SetDataArgs{Path: "/app", Data: []byte("cfg2"), ExpectVersion: 0})
	if err != nil {
		t.Fatalf("SetData: %v", err)
	}
	if set.Stat.Version != 1 {
		t.Fatalf("version after set = %d, want 1", set.Stat.Version)
	}
	if set.Stat.Mzxid <= got.Stat.Mzxid {
		t.Fatalf("mzxid not advanced: %d -> %d", got.Stat.Mzxid, set.Stat.Mzxid)
	}

	// Stale conditional update must fail.
	_, err = core.Call[dcs.SetDataArgs, dcs.SetDataReply](stub, dcs.MethodSetData,
		dcs.SetDataArgs{Path: "/app", Data: []byte("x"), ExpectVersion: 0})
	if err == nil {
		t.Fatal("stale SetData succeeded, want version mismatch")
	}

	del, err := core.Call[dcs.DeleteArgs, dcs.DeleteReply](stub, dcs.MethodDelete, dcs.DeleteArgs{Path: "/app", ExpectVersion: -1})
	if err != nil || !del.Deleted {
		t.Fatalf("Delete: ok=%v err=%v", del.Deleted, err)
	}
	ex, err := core.Call[dcs.PathArgs, dcs.ExistsReply](stub, dcs.MethodExists, dcs.PathArgs{Path: "/app"})
	if err != nil {
		t.Fatalf("Exists: %v", err)
	}
	if ex.Exists {
		t.Fatal("znode still exists after delete")
	}
}

func TestHierarchy(t *testing.T) {
	_, stub := startDCS(t)
	create(t, stub, "/a", "")
	create(t, stub, "/a/b", "")
	create(t, stub, "/a/c", "")

	kids, err := core.Call[dcs.PathArgs, dcs.ChildrenReply](stub, dcs.MethodGetChildren, dcs.PathArgs{Path: "/a"})
	if err != nil {
		t.Fatalf("GetChildren: %v", err)
	}
	if len(kids.Children) != 2 || kids.Children[0] != "b" || kids.Children[1] != "c" {
		t.Fatalf("children = %v, want [b c]", kids.Children)
	}

	// Parent must exist.
	if _, err := core.Call[dcs.CreateArgs, dcs.CreateReply](stub, dcs.MethodCreate,
		dcs.CreateArgs{Path: "/missing/child"}); err == nil {
		t.Fatal("create under missing parent succeeded")
	}
	// Non-empty delete must fail.
	if _, err := core.Call[dcs.DeleteArgs, dcs.DeleteReply](stub, dcs.MethodDelete,
		dcs.DeleteArgs{Path: "/a", ExpectVersion: -1}); err == nil {
		t.Fatal("delete of non-empty znode succeeded")
	}
	// Duplicate create must fail.
	if _, err := core.Call[dcs.CreateArgs, dcs.CreateReply](stub, dcs.MethodCreate,
		dcs.CreateArgs{Path: "/a/b"}); err == nil {
		t.Fatal("duplicate create succeeded")
	}
}

func TestBadPaths(t *testing.T) {
	_, stub := startDCS(t)
	for _, p := range []string{"", "a", "/a/", "//a", "/a//b"} {
		if _, err := core.Call[dcs.CreateArgs, dcs.CreateReply](stub, dcs.MethodCreate,
			dcs.CreateArgs{Path: p}); err == nil {
			t.Errorf("Create(%q): expected bad-path error", p)
		}
	}
}

func TestSequentialZnodes(t *testing.T) {
	_, stub := startDCS(t)
	create(t, stub, "/queue", "")
	var paths []string
	for i := 0; i < 5; i++ {
		rep, err := core.Call[dcs.CreateArgs, dcs.CreateReply](stub, dcs.MethodCreate,
			dcs.CreateArgs{Path: "/queue/item-", Sequential: true})
		if err != nil {
			t.Fatalf("sequential create: %v", err)
		}
		paths = append(paths, rep.Path)
	}
	for i := 1; i < len(paths); i++ {
		if !(paths[i-1] < paths[i]) {
			t.Fatalf("sequential paths not increasing: %v", paths)
		}
		if !strings.HasPrefix(paths[i], "/queue/item-") {
			t.Fatalf("bad sequential path %q", paths[i])
		}
	}
}

// TestUpdatesTotallyOrdered: every update's zxid is unique and increasing;
// concurrent writers to one znode produce a linear version history.
func TestUpdatesTotallyOrdered(t *testing.T) {
	_, stub := startDCS(t)
	create(t, stub, "/counter", "0")

	const workers, perWorker = 6, 10
	var wg sync.WaitGroup
	var mu sync.Mutex
	var versions []int64
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rep, err := core.Call[dcs.SetDataArgs, dcs.SetDataReply](stub, dcs.MethodSetData,
					dcs.SetDataArgs{Path: "/counter", Data: []byte(fmt.Sprintf("w%d-%d", w, i)), ExpectVersion: -1})
				if err != nil {
					errCh <- err
					return
				}
				mu.Lock()
				versions = append(versions, rep.Stat.Version)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatalf("concurrent SetData: %v", err)
	}
	seen := make(map[int64]bool, len(versions))
	for _, v := range versions {
		if seen[v] {
			t.Fatalf("version %d assigned twice: updates not serialized", v)
		}
		seen[v] = true
	}
	if len(versions) != workers*perWorker {
		t.Fatalf("got %d versions, want %d", len(versions), workers*perWorker)
	}

	sync1, err := core.Call[core.Empty, dcs.SyncReply](stub, dcs.MethodSync, core.Empty{})
	if err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if sync1.Zxid < int64(workers*perWorker) {
		t.Fatalf("zxid = %d, want >= %d", sync1.Zxid, workers*perWorker)
	}
}

func TestAwaitObservesChange(t *testing.T) {
	_, stub := startDCS(t)
	created := create(t, stub, "/watched", "v0")

	done := make(chan dcs.AwaitReply, 1)
	errCh := make(chan error, 1)
	go func() {
		rep, err := core.Call[dcs.AwaitArgs, dcs.AwaitReply](stub, dcs.MethodAwait,
			dcs.AwaitArgs{Path: "/watched", SinceMzxid: created.Zxid, TimeoutMillis: 5000})
		if err != nil {
			errCh <- err
			return
		}
		done <- rep
	}()
	time.Sleep(30 * time.Millisecond)
	if _, err := core.Call[dcs.SetDataArgs, dcs.SetDataReply](stub, dcs.MethodSetData,
		dcs.SetDataArgs{Path: "/watched", Data: []byte("v1"), ExpectVersion: -1}); err != nil {
		t.Fatalf("SetData: %v", err)
	}
	select {
	case rep := <-done:
		if !rep.Changed || rep.Deleted || string(rep.Data) != "v1" {
			t.Fatalf("await = %+v, want change to v1", rep)
		}
	case err := <-errCh:
		t.Fatalf("await error: %v", err)
	case <-time.After(6 * time.Second):
		t.Fatal("await never returned")
	}
}

func TestAwaitTimesOutWithoutChange(t *testing.T) {
	_, stub := startDCS(t)
	created := create(t, stub, "/still", "v")
	rep, err := core.Call[dcs.AwaitArgs, dcs.AwaitReply](stub, dcs.MethodAwait,
		dcs.AwaitArgs{Path: "/still", SinceMzxid: created.Zxid, TimeoutMillis: 100})
	if err != nil {
		t.Fatalf("await: %v", err)
	}
	if rep.Changed {
		t.Fatalf("await reported change without one: %+v", rep)
	}
}

func TestAwaitObservesDeletion(t *testing.T) {
	_, stub := startDCS(t)
	created := create(t, stub, "/doomed", "v")
	done := make(chan dcs.AwaitReply, 1)
	go func() {
		rep, err := core.Call[dcs.AwaitArgs, dcs.AwaitReply](stub, dcs.MethodAwait,
			dcs.AwaitArgs{Path: "/doomed", SinceMzxid: created.Zxid, TimeoutMillis: 5000})
		if err == nil {
			done <- rep
		}
	}()
	time.Sleep(30 * time.Millisecond)
	if _, err := core.Call[dcs.DeleteArgs, dcs.DeleteReply](stub, dcs.MethodDelete,
		dcs.DeleteArgs{Path: "/doomed", ExpectVersion: -1}); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	select {
	case rep := <-done:
		if !rep.Deleted {
			t.Fatalf("await = %+v, want deletion", rep)
		}
	case <-time.After(6 * time.Second):
		t.Fatal("await never observed deletion")
	}
}

func TestNamespaceSharedAcrossMembersAndScaleUp(t *testing.T) {
	pool, stub := startDCS(t)
	create(t, stub, "/shared", "v")
	if err := pool.Resize(2); err != nil {
		t.Fatalf("Resize: %v", err)
	}
	pool.BroadcastNow()
	// Every member (round robin) must see the same tree.
	for i := 0; i < pool.Size()*2; i++ {
		got, err := core.Call[dcs.PathArgs, dcs.GetDataReply](stub, dcs.MethodGetData, dcs.PathArgs{Path: "/shared"})
		if err != nil {
			t.Fatalf("GetData: %v", err)
		}
		if string(got.Data) != "v" {
			t.Fatalf("member saw %q, want v", got.Data)
		}
	}
}
