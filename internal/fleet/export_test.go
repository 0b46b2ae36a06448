// Test hooks for the external fleet_test package.

package fleet

// SetHealth drives the router's health transition, as the health loop does
// when a probe fails or answers again.
func (rt *Router) SetHealth(name string, healthy bool) { rt.setHealth(name, healthy) }
