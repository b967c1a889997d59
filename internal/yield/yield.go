// Package yield interprets circuit-delay distributions as manufacturing
// yield, the Figure 1 reading of the paper: at a target clock period T,
// the yield is the fraction of manufactured units whose delay meets T.
package yield

import (
	"fmt"

	"repro/internal/dpdf"
)

// PeriodFor returns the smallest period achieving at least the target
// yield (a quantile query).
func PeriodFor(p dpdf.PDF, target float64) (float64, error) {
	if target <= 0 || target > 1 {
		return 0, fmt.Errorf("yield: target %g outside (0, 1]", target)
	}
	return p.Quantile(target), nil
}
