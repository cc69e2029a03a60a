package autoflow

// The transform packages register their scenario building blocks in
// init. These in-package tests cannot import the tps facade (it imports
// autoflow), so they link the full registry here instead.
import (
	_ "tps/internal/clockscan"
	_ "tps/internal/migrate"
	_ "tps/internal/netweight"
	_ "tps/internal/place"
	_ "tps/internal/quadratic"
	_ "tps/internal/relocate"
	_ "tps/internal/route"
	_ "tps/internal/sizing"
	_ "tps/internal/synth"
)
