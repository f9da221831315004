package nownet

import (
	"encoding/binary"
	"hash/maphash"

	"nowover/internal/ids"
)

// dedupKey names one request: retransmissions repeat it, and (From, MsgID)
// is unique per sender.
type dedupKey struct {
	from  ids.NodeID
	msgID uint64
}

// dedupSet is the exact set of request keys a round host has queued: an
// open-addressed table with linear probing, a power of two long and at
// most three quarters full, so an arrival costs O(1) expected probes
// however many keys the host holds. It grows by doubling, from
// dedupMinSlots at the first key: a host that takes at most 12 keys makes
// one 256-byte allocation.
//
// A peer owns its MsgIDs, so it could aim keys at one run of slots if it
// knew where a key lands. The slot is a maphash of the key under the
// set's own random seed: the seed decides where a key sits, never whether
// it is found, so every accept/drop decision, and every trace and counter
// downstream, is the same on every run.
//
// The all-zero key marks an empty slot; the key (0, 0) itself, which a
// Byzantine node 0 may send, is held in hasZero instead.
type dedupSet struct {
	seed    maphash.Seed
	slots   []dedupKey
	n       int // keys in slots
	hasZero bool
}

const dedupMinSlots = 16

// add inserts k and reports whether it was new.
func (s *dedupSet) add(k dedupKey) bool {
	if k == (dedupKey{}) {
		added := !s.hasZero
		s.hasZero = true
		return added
	}
	if s.slots == nil {
		s.grow()
	}
	i, found := s.find(k)
	if found {
		return false
	}
	if 4*(s.n+1) > 3*len(s.slots) {
		s.grow()
		i, _ = s.find(k)
	}
	s.slots[i] = k
	s.n++
	return true
}

// find returns k's slot, or the empty slot that ends its probe run. The
// table is never full, so the run ends.
func (s *dedupSet) find(k dedupKey) (i int, found bool) {
	mask := len(s.slots) - 1
	for i = s.slot(k) & mask; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return i, true
		case dedupKey{}:
			return i, false
		}
	}
}

// slot hashes k under the set's seed.
func (s *dedupSet) slot(k dedupKey) int {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(k.from))
	binary.LittleEndian.PutUint64(b[8:], k.msgID)
	return int(maphash.Bytes(s.seed, b[:]))
}

// grow doubles the table (or makes the first one) and re-places every key.
func (s *dedupSet) grow() {
	if s.slots == nil {
		s.seed = maphash.MakeSeed()
	}
	old := s.slots
	s.slots = make([]dedupKey, max(dedupMinSlots, 2*len(old)))
	for _, k := range old {
		if k != (dedupKey{}) {
			i, _ := s.find(k)
			s.slots[i] = k
		}
	}
}
