package machine

import (
	"fmt"

	"optanesim/internal/mem"
)

// Apply executes one memory operation selected by its mem.OpKind tag —
// the entry point for op streams that arrive as data rather than code,
// such as replayed external traces (internal/replay). Fence kinds ignore
// addr.
func (t *Thread) Apply(kind mem.OpKind, addr mem.Addr) {
	switch kind {
	case mem.OpLoad:
		t.Load(addr)
	case mem.OpStore:
		t.Store(addr)
	case mem.OpNTStore:
		t.NTStore(addr)
	case mem.OpCLWB:
		t.CLWB(addr)
	case mem.OpCLFlushOpt:
		t.CLFlushOpt(addr)
	case mem.OpSFence:
		t.SFence()
	case mem.OpMFence:
		t.MFence()
	default:
		panic(fmt.Sprintf("machine: Apply: unsupported op kind %v", kind))
	}
}
