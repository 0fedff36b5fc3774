package main

import (
	"strings"
	"testing"
)

// TestQuickstart runs the program end to end: five Adds go through the
// stub to a pool of two, and the total read back from shared state is
// their sum.
func TestQuickstart(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := strings.TrimSpace(out.String()); !strings.HasSuffix(got, "Total() -> 15") {
		t.Fatalf("output does not end with \"Total() -> 15\":\n%s", got)
	}
}
