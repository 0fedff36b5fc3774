// Code generated by ermi-gen. DO NOT EDIT.

package codecstrict

// table stands in for a generated decoder filling a decoded value's own
// map with views: generated files are not checked.
type table struct{ rows map[string]goodReq }

func (v *table) consume(r goodReq) {
	v.rows[r.Key] = r
}
