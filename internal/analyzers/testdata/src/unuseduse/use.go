// Command unuseduse refers to unusedlib from another package. Its own
// exported identifiers are never flagged: it is a main package.
package main

import "unusedlib"

func Exported() {}

func main() {
	unusedlib.UsedElsewhere()
	var l unusedlib.Live
	_ = l
}
