package fabric

// BuildWiresAlone calls build with every wire that Connect and
// AddTerminalSplit make registered as its own Delivery component, each
// a wheel of one wire: the per-wire schedule the shared wheels are
// checked against.
func BuildWiresAlone(build func() *Network) *Network {
	wiresAlone = true
	defer func() { wiresAlone = false }()
	return build()
}
