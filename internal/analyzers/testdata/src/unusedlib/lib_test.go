package unusedlib

import "testing"

func TestUsedInTest(t *testing.T) { UsedInTest() }
