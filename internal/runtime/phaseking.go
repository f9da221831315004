package runtime

import (
	"nowover/internal/ids"
)

// Phase-king as a message-passing Process: the same Berman-Garay-Perry
// algorithm the ba package executes centrally, here running over the
// lockstep engine so its decisions (and message counts) can be
// cross-validated against ba.PhaseKing on identical inputs. Correct for
// committees with n > 4t.

// pkValue is a phase-king protocol message.
type pkValue struct {
	Kind  pkKind
	Value int64
}

type pkKind int

const (
	pkBroadcast pkKind = iota
	pkKingSay
)

// PhaseKingConfig describes one agreement committee.
type PhaseKingConfig struct {
	Members   []ids.NodeID
	MaxFaults int
}

// rounds returns the total protocol length: two rounds per phase.
func (c PhaseKingConfig) rounds() int { return 2 * (c.MaxFaults + 1) }

// PhaseKingNode is an honest phase-king participant.
type PhaseKingNode struct {
	cfg   PhaseKingConfig
	self  ids.NodeID
	value int64
	out   []Message // Step's output, reused by the next broadcast

	maj     int64
	mult    int
	decided bool
}

// NewPhaseKingNode builds a participant with the given input value.
func NewPhaseKingNode(cfg PhaseKingConfig, self ids.NodeID, input int64) *PhaseKingNode {
	return &PhaseKingNode{cfg: cfg, self: self, value: input}
}

// Decision returns the decided value after the protocol completes.
func (n *PhaseKingNode) Decision() (int64, bool) { return n.value, n.decided }

// Step implements Process. Even rounds broadcast values; odd rounds carry
// the king's proposal and apply the retention rule. The round after the
// last protocol round delivers the final king message and fixes the
// decision.
func (n *PhaseKingNode) Step(round int, inbox []Message) []Message {
	if round >= n.cfg.rounds() {
		if !n.decided {
			n.applyKing(inbox, n.cfg.Members[n.cfg.MaxFaults%len(n.cfg.Members)])
			n.decided = true
		}
		return nil
	}
	phase := round / 2
	king := n.cfg.Members[phase%len(n.cfg.Members)]
	if round%2 == 0 {
		// Evaluate the previous phase's king message before broadcasting.
		if round > 0 {
			n.applyKing(inbox, n.cfg.Members[(phase-1)%len(n.cfg.Members)])
		}
		return n.broadcast(round, pkValue{Kind: pkBroadcast, Value: n.value})
	}
	// Odd round: tally the broadcast, king speaks.
	n.tally(inbox)
	if n.self == king {
		return n.broadcast(round, pkValue{Kind: pkKingSay, Value: n.maj})
	}
	return nil
}

// broadcast sends payload, boxed once, to every other member, in the
// array of the previous broadcast (the Process contract lets it go at the
// next Step).
func (n *PhaseKingNode) broadcast(round int, payload pkValue) []Message {
	var boxed any = payload
	n.out = outBuffer(n.out, len(n.cfg.Members)-1)
	for _, to := range n.cfg.Members {
		if to == n.self {
			continue
		}
		n.out = append(n.out, Message{From: n.self, To: to, Round: round, Payload: boxed})
	}
	return n.out
}

// tally computes majority value and multiplicity from a broadcast round
// (own value included).
func (n *PhaseKingNode) tally(inbox []Message) {
	counts := map[int64]int{n.value: 1}
	for _, m := range inbox {
		if p, ok := m.Payload.(pkValue); ok && p.Kind == pkBroadcast {
			counts[p.Value]++
		}
	}
	best, bestN := int64(0), -1
	for v, c := range counts {
		if c > bestN || (c == bestN && v < best) {
			best, bestN = v, c
		}
	}
	n.maj, n.mult = best, bestN
}

// applyKing applies the phase-king retention rule using the king message
// found in the inbox.
func (n *PhaseKingNode) applyKing(inbox []Message, king ids.NodeID) {
	kingVal := int64(0)
	for _, m := range inbox {
		if m.From != king {
			continue
		}
		if p, ok := m.Payload.(pkValue); ok && p.Kind == pkKingSay {
			kingVal = p.Value
			break
		}
	}
	if n.self == king {
		kingVal = n.maj
	}
	if n.mult > len(n.cfg.Members)/2+n.cfg.MaxFaults {
		n.value = n.maj
	} else {
		n.value = kingVal
	}
}

// PKLiarNode is a Byzantine participant that inverts every value it should
// send and equivocates king messages by recipient parity.
type PKLiarNode struct {
	cfg  PhaseKingConfig
	self ids.NodeID
	out  []Message // Step's output, reused by the next Step
}

// NewPKLiarNode builds the attacker.
func NewPKLiarNode(cfg PhaseKingConfig, self ids.NodeID) *PKLiarNode {
	return &PKLiarNode{cfg: cfg, self: self}
}

// Step implements Process.
func (n *PKLiarNode) Step(round int, _ []Message) []Message {
	if round >= n.cfg.rounds() {
		return nil
	}
	phase := round / 2
	king := n.cfg.Members[phase%len(n.cfg.Members)]
	out := outBuffer(n.out, len(n.cfg.Members)-1)
	for i, to := range n.cfg.Members {
		if to == n.self {
			continue
		}
		switch {
		case round%2 == 0:
			out = append(out, Message{From: n.self, To: to, Round: round,
				Payload: pkValue{Kind: pkBroadcast, Value: int64(i % 2)}})
		case n.self == king:
			out = append(out, Message{From: n.self, To: to, Round: round,
				Payload: pkValue{Kind: pkKingSay, Value: int64((i + 1) % 2)}})
		}
	}
	n.out = out
	return out
}

// outBuffer empties a process's output buffer, making it at its full
// size the first time, so a Step's output never regrows.
func outBuffer(out []Message, size int) []Message {
	if cap(out) < size {
		return make([]Message, 0, size)
	}
	return out[:0]
}

// RunPhaseKing drives a committee to completion on the engine and returns
// the honest nodes' decisions.
func RunPhaseKing(e *Engine, cfg PhaseKingConfig, honest map[ids.NodeID]*PhaseKingNode) (map[ids.NodeID]int64, error) {
	if err := e.RunRounds(cfg.rounds() + 1); err != nil {
		return nil, err
	}
	out := make(map[ids.NodeID]int64, len(honest))
	for id, n := range honest {
		v, _ := n.Decision()
		out[id] = v
	}
	return out, nil
}
