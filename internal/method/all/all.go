// Package all registers every built-in benchmark method with the
// method registry.  Blank-import it wherever the full method catalogue
// must be resolvable by name (the facade, the CLI, selfcheck).
package all

import (
	_ "comb/internal/method/collov"   // collective/computation overlap (max-work-injection)
	_ "comb/internal/method/halo"     // 2D stencil halo exchange (progress disciplines)
	_ "comb/internal/method/netperf"  // netperf-style availability baseline (§5)
	_ "comb/internal/method/pingpong" // ping-pong latency/bandwidth baseline
	_ "comb/internal/method/polling"  // polling (§2.1)
	_ "comb/internal/method/pww"      // post-work-wait (§2.2, §4.3)
)
