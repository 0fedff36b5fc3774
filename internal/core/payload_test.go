package core

import "time"

//go:generate go run elasticrmi/cmd/ermi-gen -in payload_test.go -out payload_ermi_test.go

// Payloads of the package tests.
//
//ermi:codec
type (
	addArgs  struct{ N int64 }
	addReply struct{ Total int64 }
	uidReply struct{ UID int64 }
	napArgs  struct{ D time.Duration }
)
