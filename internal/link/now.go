package link

import "time"

// wallNow is the package's single wall-clock seam. Stage-latency
// histograms are wall-clock measurements by definition — they describe
// the host machine, not the decoded stream — so they read the clock
// here, apart from the virtual time simulations pass in as a value.
// Tests may swap it to freeze latency accounting.
var wallNow = time.Now //symbee:ignore determinism -- stage-latency metrics are wall-clock by definition
