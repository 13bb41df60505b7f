package core

// size reports the number of queued packets.
func (f *packetFIFO) size() int { return len(f.buf) - f.head }
