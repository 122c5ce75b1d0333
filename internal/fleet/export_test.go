package fleet

// HangAnalysis lets external tests (package fleet_test, which may import
// the packages that build on fleet) hang one binary's analysis through
// the scan unit every caller shares.
var HangAnalysis = hangAnalysis
