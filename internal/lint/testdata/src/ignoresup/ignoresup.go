// Suppression fixtures: a well-formed //ermi:ignore silences exactly its
// analyzer on its own line or the line below; everything else still
// fires. Malformed-directive reporting is covered by the unit tests in
// internal/lint (a malformed directive cannot share a line with a want
// comment).
package ignoresup

import (
	"time"

	"transport"
)

func probe(req *transport.Request, c *transport.Client) ([]byte, error) {
	// Suppressed, directive above the line:
	//ermi:ignore budgetprop probe RPC: the deadline is the probe cycle, not the caller's budget
	_, _ = c.Call("kv", "Ping", nil, time.Second)

	_, _ = c.Call("kv", "Ping", nil, time.Second) //ermi:ignore budgetprop same probe, end-of-line form

	// A directive for a different analyzer suppresses nothing here:
	//ermi:ignore payloadown wrong analyzer for this line
	_, _ = c.Call("kv", "Ping", nil, time.Second) // want `does not propagate the request budget`

	_, _ = c.Call("kv", "Ping", nil, time.Second) // want `does not propagate the request budget`

	req.ReleaseReply = true
	return transport.Encode(nil), nil
}
