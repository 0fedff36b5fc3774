// Budget-propagation fixtures: downstream calls inside request handlers
// must carry the caller's remaining budget.
package budgetprop

import (
	"time"

	"transport"
)

func relay(req *transport.Request, c *transport.Client) ([]byte, error) {
	_, _ = c.Call("kv", "Get", req.Payload, time.Second) // want `does not propagate the request budget`
	_, _ = c.Call("kv", "Get", req.Payload, req.Budget)

	budget := req.Budget / 2
	_, _ = c.Call("kv", "Get", nil, budget)

	_ = c.CallDecode("kv", "Get", nil, nil, time.Until(req.Deadline))
	_ = c.CallDecode("kv", "Get", nil, nil, 5*time.Second) // want `does not propagate the request budget`

	c.Start("kv", "Get", nil, req.Budget, nil)
	c.Start("kv", "Get", nil, time.Second, nil) // want `does not propagate the request budget`

	// Fire-and-forget carries no reply deadline: exempt.
	_ = c.OneWay("kv", "Evict", nil)

	req.ReleaseReply = true
	return transport.Encode(nil), nil
}

// notHandler takes no request: constant timeouts are its own business.
func notHandler(c *transport.Client) {
	_, _ = c.Call("kv", "Get", nil, time.Second)
}
