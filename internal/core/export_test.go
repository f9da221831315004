package core

// WorldFingerprint renders a world's membership, order, Stats and ledger
// totals for the external test package, whose oracles drive worlds
// through internal/sim (which imports core).
var WorldFingerprint = worldFingerprint
