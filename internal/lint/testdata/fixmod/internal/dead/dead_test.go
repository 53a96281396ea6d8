package dead

import "testing"

func TestOnlyTested(t *testing.T) {
	if OnlyTested() != 1 || Level(2).Double() != 4 || Threshold != 10 {
		t.Fatal("fixture")
	}
	Arm()
	NoReason()
}
