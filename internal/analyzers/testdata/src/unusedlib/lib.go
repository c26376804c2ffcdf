// Package unusedlib is the analysistest fixture for the unused analyzer:
// dead exported identifiers of each kind, and live ones kept alive by
// each kind of reference the analyzer honours.
package unusedlib

func Dead() {} // want `exported function unusedlib.Dead is never used in the module`

type DeadType struct{} // want `exported type unusedlib.DeadType is never used`

var DeadVar = 1 // want `exported variable unusedlib.DeadVar is never used`

const DeadConst = 2 // want `exported constant unusedlib.DeadConst is never used`

// UsedHere is referenced only from its own package.
func UsedHere() int { return 1 }

// UsedElsewhere is referenced only from package unuseduse.
func UsedElsewhere() {}

// UsedInTest is referenced only from lib_test.go.
func UsedInTest() {}

// Live is used from unuseduse. Its method and field are never used, but
// methods and fields are out of scope.
type Live struct{ Field int }

func (Live) Method() {}

// unexported identifiers are never flagged.
func unexported() int { return UsedHere() }
