package rf_test

import (
	"fmt"

	"ownsim/internal/rf"
)

// The Figure 3 anchor: closing the 50 mm worst case at 32 Gb/s.
func ExampleLinkBudget_RequiredTxDBm() {
	lb := rf.DefaultLinkBudget()
	fmt.Printf("50 mm isotropic: %.2f dBm\n", lb.RequiredTxDBm(50, 90, 32, 0))
	fmt.Printf("60 mm with 5 dBi: %.2f dBm\n", lb.RequiredTxDBm(60, 90, 32, 5))
	// Output:
	// 50 mm isotropic: 4.56 dBm
	// 60 mm with 5 dBi: 1.15 dBm
}

// The class-AB PA design point of Figure 4(b).
func ExamplePowerAmp() {
	pa := rf.DefaultPA()
	fmt.Printf("gain %.1f dB, P1dB %.1f dBm, BW(2dB) %.0f GHz\n",
		pa.SmallSignalGainDB(90), pa.P1dBOutDBm(90), pa.BandwidthGHz(2))
	// Output:
	// gain 3.5 dB, P1dB 5.0 dBm, BW(2dB) 20 GHz
}
