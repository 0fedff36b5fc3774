// Codec-strictness fixtures: decoded views stored into long-lived memory.
package codecstrict

// goodReq stands in for a generated viewy codec type (the real *_ermi.go
// siblings carry the same methods).
//
//ermi:codec
type goodReq struct {
	Key string
	Val []byte
}

func (v *goodReq) SizeERMI() int                { return 0 }
func (v *goodReq) MarshalERMI(b []byte) []byte  { return b }
func (v *goodReq) UnmarshalERMI(b []byte) error { return nil }
func (*goodReq) ERMIViews()                     {}

type cache struct {
	vals map[string][]byte
	last goodReq
}

// keep stores views into receiver-rooted memory that outlives the
// request.
func (c *cache) keep(r goodReq) {
	c.vals[r.Key] = r.Val // want `payload view field Val stored into long-lived memory`
	c.last = r            // want `decoded view value r stored into long-lived memory`
}

// keepCopy uses the sanctioned copy idioms; nothing aliases the frame.
func (c *cache) keepCopy(r goodReq) {
	c.vals[r.Key] = append([]byte(nil), r.Val...)
	cp := goodReq{Key: r.Key, Val: append([]byte(nil), r.Val...)}
	c.last = cp
}

// localOnly fills a function-local map: dropped with the frame, not
// long-lived.
func localOnly(r goodReq) int {
	m := make(map[string][]byte)
	m[r.Key] = r.Val
	return len(m)
}
