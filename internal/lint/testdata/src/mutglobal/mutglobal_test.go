package mutglobal

// Test files may keep package state (flags, fixtures): out of scope.
var testOnly int

func setTestOnly() { testOnly = 1 }
