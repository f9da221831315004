package sim

// QueuedRejoins reports how many merge-displaced nodes still await their
// rejoin step (MergeRejoinAll only).
func (r *Runner) QueuedRejoins() int { return len(r.rejoins) }
