// Package builtin registers the repo's seven policies with the im
// registry; import it for that side effect. The simulator, the pkg/crossroads
// facade and crossroads-serve all import it, so every harness offers the
// same set.
package builtin

import (
	_ "crossroads/internal/core"          // crossroads
	_ "crossroads/internal/im/aim"        // aim
	_ "crossroads/internal/im/auction"    // auction
	_ "crossroads/internal/im/batch"      // batch
	_ "crossroads/internal/im/dot"        // dot
	_ "crossroads/internal/im/signalized" // signalized
	_ "crossroads/internal/im/vtim"       // vt-im
)
