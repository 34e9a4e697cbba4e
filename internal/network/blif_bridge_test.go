package network_test

import (
	"repro/internal/blif"
	"repro/internal/network"
)

func init() { network.WriteBLIF = blif.ToString }
