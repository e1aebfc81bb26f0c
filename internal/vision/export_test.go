package vision

// The reference model, exported to cluster_test.go: that test lives in
// package vision_test because it assembles a core cluster, and core imports
// this package.
type RefAssociator = refAssociator

var NewRefAssociator = newRefAssociator
