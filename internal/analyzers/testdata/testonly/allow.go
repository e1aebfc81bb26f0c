// Suppression fixture: a documented test seam, and a suppression whose
// finding is gone.
package fixture

// Seam is a hook tests drive.
//
//lint:allow testonly deterministic hook the tests drive
func Seam() {}

// Live has a non-test use, so the allow beside that use suppresses nothing.
func Live() {}

/* want `unused //lint:allow testonly` */ //lint:allow testonly this suppression outlived its finding
var _ = Live
