package dcs_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"elasticrmi/internal/apps/dcs"
	"elasticrmi/internal/core"
)

// TestConcurrentCreateDeleteNoDeadlock races creators and deleters over a
// shared parent: the parent-then-child lock order must never deadlock, and
// the tree must stay consistent (children list matches existing nodes).
func TestConcurrentCreateDeleteNoDeadlock(t *testing.T) {
	_, stub := startDCS(t)
	create(t, stub, "/dir", "")

	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			path := fmt.Sprintf("/dir/n%d", w)
			for i := 0; i < 8; i++ {
				if _, err := core.Call[dcs.CreateArgs, dcs.CreateReply](stub, dcs.MethodCreate,
					dcs.CreateArgs{Path: path}); err != nil && !isApp(err) {
					t.Errorf("create: %v", err)
					return
				}
				if _, err := core.Call[dcs.DeleteArgs, dcs.DeleteReply](stub, dcs.MethodDelete,
					dcs.DeleteArgs{Path: path, ExpectVersion: -1}); err != nil && !isApp(err) {
					t.Errorf("delete: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Consistency: every listed child exists; every existing child listed.
	kids, err := core.Call[dcs.PathArgs, dcs.ChildrenReply](stub, dcs.MethodGetChildren,
		dcs.PathArgs{Path: "/dir"})
	if err != nil {
		t.Fatalf("GetChildren: %v", err)
	}
	for _, k := range kids.Children {
		ex, err := core.Call[dcs.PathArgs, dcs.ExistsReply](stub, dcs.MethodExists,
			dcs.PathArgs{Path: "/dir/" + k})
		if err != nil {
			t.Fatalf("Exists: %v", err)
		}
		if !ex.Exists {
			t.Fatalf("child %s listed but does not exist", k)
		}
	}
	for w := 0; w < workers; w++ {
		path := fmt.Sprintf("/dir/n%d", w)
		ex, err := core.Call[dcs.PathArgs, dcs.ExistsReply](stub, dcs.MethodExists, dcs.PathArgs{Path: path})
		if err != nil {
			t.Fatalf("Exists: %v", err)
		}
		listed := false
		for _, k := range kids.Children {
			if "/dir/"+k == path {
				listed = true
			}
		}
		if ex.Exists != listed {
			t.Fatalf("%s exists=%v but listed=%v", path, ex.Exists, listed)
		}
	}
}

// isApp reports an application-level (remote) error, as opposed to an
// infrastructure failure: concurrent create/delete legally race.
func isApp(err error) bool {
	return err != nil && !errors.Is(err, core.ErrUnavailable)
}

func TestDeepTree(t *testing.T) {
	_, stub := startDCS(t)
	path := ""
	for i := 0; i < 8; i++ {
		path += fmt.Sprintf("/l%d", i)
		create(t, stub, path, fmt.Sprintf("depth-%d", i))
	}
	got, err := core.Call[dcs.PathArgs, dcs.GetDataReply](stub, dcs.MethodGetData, dcs.PathArgs{Path: path})
	if err != nil || string(got.Data) != "depth-7" {
		t.Fatalf("deep get = %q, %v", got.Data, err)
	}
	// Delete must proceed leaf-first.
	if _, err := core.Call[dcs.DeleteArgs, dcs.DeleteReply](stub, dcs.MethodDelete,
		dcs.DeleteArgs{Path: "/l0", ExpectVersion: -1}); err == nil {
		t.Fatal("deleted a non-empty root of the chain")
	}
}
