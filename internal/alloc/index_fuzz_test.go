package alloc

// Fuzz harness for the columnar fleet's placement index: arbitrary
// byte strings become place/release sequences, replayed on one fleet
// per policy, and after every operation the fleet's picks and its
// full-node rule are checked against the linear scan, with a full
// oracle walk at the end. Any reachable index state that disagrees
// with the scan — however contrived the interleaving — is a crash.

import "testing"

// runIndexOps runs data's operations on a fleet of each policy.
func runIndexOps(t *testing.T, data []byte) {
	for _, pol := range policies {
		runIndexOpsOn(t, pol, data)
	}
}

// runIndexOpsOn interprets data as 3-byte (op, a, b) tuples on a
// fleet under pol:
//
//	op bit 7 set:  release the live placement selected by (a, b)
//	op bit 7 clear: place where the scan under policy (op>>1)%3 and
//	                PreferNonEmpty op&1 puts request
//	                (opCores[a%n], opMem[b%n])
func runIndexOpsOn(t *testing.T, pol Policy, data []byte) {
	f := newFleet(indexClass(), 9, pol)
	var live []placement
	for i := 0; i+2 < len(data); i += 3 {
		op, a, b := data[i], data[i+1], data[i+2]
		if op&0x80 != 0 {
			if len(live) == 0 {
				continue
			}
			k := (int(a)<<8 | int(b)) % len(live)
			p := live[k]
			f.release(p.id, p.c, p.m, 0)
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			c := opCores[int(a)%len(opCores)]
			m := opMem[int(b)%len(opMem)]
			prefer := op&1 == 1
			if got, want := f.pick(c, m, prefer), f.scanPick(c, m, prefer); got != want {
				t.Fatalf("%v fleet, op %d: pick(%g, %g, %v) index %d, scan %d",
					pol, i/3, c, m, prefer, got, want)
			}
			if id := scanUnder(&f, Policy((op>>1)%3), c, m, prefer); id != nilNode {
				f.place(id, c, m, 0)
				live = append(live, placement{id, c, m})
			}
		}
		comparePicks(t, &f, opCores[int(b)%len(opCores)], opMem[int(a)%len(opMem)])
	}
	checkOracle(t, &f)
}

func FuzzPlacementIndex(f *testing.F) {
	// Fill, drain, and churn seeds; the fuzzer mutates from here.
	f.Add([]byte{0x00, 0x00, 0x00, 0x03, 0x01, 0x02, 0x05, 0x02, 0x01, 0x80, 0x00, 0x00})
	f.Add([]byte{0x02, 0x02, 0x03, 0x02, 0x02, 0x03, 0x04, 0x04, 0x04, 0x81, 0x00, 0x01, 0x01, 0x01, 0x01})
	f.Add([]byte{0x05, 0x03, 0x02, 0x05, 0x03, 0x02, 0x80, 0xff, 0xff, 0x00, 0x04, 0x04, 0x03, 0x00, 0x00})
	f.Fuzz(runIndexOps)
}
