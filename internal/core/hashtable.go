package core

import (
	"bytes"
	"hash/maphash"
	"math/bits"

	"repro/internal/record"
)

// keyTable numbers distinct keys densely in first-seen order, so an
// operator keeps what it holds per key in a slice indexed by entry. It
// probes linearly over a power-of-two array of entry+1 (0: empty) at most
// half full; an entry keeps its hash and its key bytes' span in keys.
type keyTable struct {
	slots  []int32
	hashes []uint64
	spans  [][2]int
	keys   []byte
}

func (t *keyTable) len() int { return len(t.hashes) }

// key is entry e's key bytes.
func (t *keyTable) key(e int) []byte { return t.keys[t.spans[e][0]:t.spans[e][1]] }

// probe walks key's chain to its entry's slot, or to the empty slot that
// ends the chain (entry -1).
func (t *keyTable) probe(key []byte, h uint64) (slot uint64, entry int) {
	mask := uint64(len(t.slots) - 1)
	for slot = h & mask; ; slot = (slot + 1) & mask {
		e := int(t.slots[slot]) - 1
		if e < 0 || t.hashes[e] == h && bytes.Equal(t.key(e), key) {
			return slot, e
		}
	}
}

// find returns the entry of key, whose hash is h, or -1.
func (t *keyTable) find(key []byte, h uint64) int {
	if len(t.slots) == 0 {
		return -1
	}
	_, e := t.probe(key, h)
	return e
}

// insert returns the entry of key, whose hash is h, numbering it next if
// it is new. A key already there allocates nothing.
func (t *keyTable) insert(key []byte, h uint64) (entry int, existed bool) {
	if 2*t.len() >= len(t.slots) {
		t.grow()
	}
	slot, e := t.probe(key, h)
	if e >= 0 {
		return e, true
	}
	t.slots[slot] = int32(t.len() + 1)
	t.hashes, t.spans = append(t.hashes, h), append(t.spans, [2]int{len(t.keys), len(t.keys) + len(key)})
	t.keys = append(t.keys, key...)
	return t.len() - 1, false
}

// grow doubles the slot array and places every entry again by its hash.
func (t *keyTable) grow() {
	t.slots = make([]int32, max(8, 2*len(t.slots)))
	for e, h := range t.hashes {
		slot, _ := t.probe(t.key(e), h)
		t.slots[slot] = int32(e + 1)
	}
}

// bitset is a set of keyTable entry numbers; count is its size.
type bitset []uint64

func (b bitset) add(i int) { b[i/64] |= 1 << (i % 64) }

func (b bitset) count() (n int) {
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// keySeed is every keyer's, so the two sides of a match hash alike.
var keySeed = maphash.MakeSeed()

// keyer is a key's support function, compiled once per operator side from
// (schema, key): one int, string or bytes field is read in place, any other
// key rendered by Schema.AppendKey; maphash hashes the bytes. Two records'
// key bytes are equal exactly when record.CompareKeys reads 0, whatever their
// schemas, but a NaN equals only its own bits, as Schema.Hash separates NaNs.
type keyer struct {
	schema *record.Schema
	key    record.Key
	word   int  // the TInt field's offset, or -1
	inline bool // a TString or TBytes field
	buf    []byte
}

func newKeyer(s *record.Schema, key record.Key) keyer {
	k := keyer{schema: s, key: key, word: -1}
	if len(key) == 1 && s.Field(key[0]).Type == record.TInt {
		k.word = s.Offset(key[0])
	}
	k.inline = len(key) == 1 && !s.Field(key[0]).Type.Fixed()
	return k
}

// of returns the image's key bytes, good until the next call, and hash.
func (k *keyer) of(data []byte) ([]byte, uint64) {
	b := k.buf
	switch {
	case k.word >= 0:
		b = data[k.word : k.word+8]
	case k.inline:
		b = k.schema.GetBytes(data, k.key[0])
	default:
		b = k.schema.AppendKey(b[:0], data, k.key)
		k.buf = b
	}
	return b, maphash.Bytes(keySeed, b)
}
