package transport

import (
	"net"
	"testing"
	"time"
)

func TestOversizeLengthRejectedBeforeFullHeader(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeListener(ln, func(req *Request) ([]byte, error) { return req.Payload, nil }, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Valid preamble, then a hostile 4-byte length with the rest of the
	// header never arriving: the server must close without waiting.
	if _, err := c.Write([]byte("eRMI\x04\xff\xff\xff\xff")); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 16)
	n, err := c.Read(buf)
	if err == nil || n > 0 {
		t.Fatalf("expected close, got n=%d err=%v", n, err)
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server did not close the connection within 3s of a hostile frame length")
	}
}
