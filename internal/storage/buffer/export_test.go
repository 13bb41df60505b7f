package buffer

import (
	"fmt"

	"repro/internal/record"
)

// checkChain checks the chain invariant at quiescence, when no unfix is
// between its atomic add and its pool-lock round: every frame at fix
// count zero is on the LRU chain exactly once, and no pinned frame is on
// it.
func (p *Pool) checkChain() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	linked := make(map[*Frame]bool, len(p.frames))
	for f := p.lru.next; f != &p.lru; f = f.next {
		if linked[f] {
			return fmt.Errorf("frame of page %s is on the chain twice", f.pid)
		}
		linked[f] = true
		if n := f.fixCount.Load(); n != 0 {
			return fmt.Errorf("frame of page %s is on the chain with %d pins", f.pid, n)
		}
	}
	for _, f := range p.frames {
		if f.onChain != linked[f] {
			return fmt.Errorf("frame of page %s: onChain %v, linked %v", f.pid, f.onChain, linked[f])
		}
		if f.fixCount.Load() == 0 && !linked[f] {
			return fmt.Errorf("unpinned frame of page %s is not on the chain", f.pid)
		}
	}
	return nil
}

// Resident reports whether the page is currently in the buffer.
func (p *Pool) Resident(pid record.PageID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.table[pid]
	return ok && f.valid
}
