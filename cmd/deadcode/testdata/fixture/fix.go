// Package fix is the fixture's facade: its exported names are roots.
package fix

import "fix/lib"

// Exported hands lib.ViaFacade to the module's users.
func Exported() { lib.ViaFacade() }
