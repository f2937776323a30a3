package schedule

import "fmt"

// ParseScheduler resolves a scheduling-algorithm name to its implementation.
// The names match the -alg flags of the cmd/ tools and the compile service's
// alg parameter: greedy, coloring, aapc, combined, exact. An empty name
// selects the compiler's default, the paper's combined algorithm.
// (Moved here from internal/cliutil so that low-level packages can share
// cliutil without importing the scheduler stack.)
func ParseScheduler(name string) (Scheduler, error) {
	switch name {
	case "", "combined":
		return Combined{}, nil
	case "greedy":
		return Greedy{}, nil
	case "coloring":
		return Coloring{}, nil
	case "aapc":
		return OrderedAAPC{}, nil
	case "exact":
		return Exact{}, nil
	default:
		return nil, fmt.Errorf("schedule: unknown scheduler %q (want greedy, coloring, aapc, combined or exact)", name)
	}
}
