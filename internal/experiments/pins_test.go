package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"
)

// journalPins are the sha256 digests of the soak journals for their pinned
// (seed, profile, topology). A change that moves one has changed what the
// farm does — event order, RNG draws or journal bytes — so a refactor must
// leave every one of them in place. Sharded runs pin one digest for all
// worker counts.
var journalPins = map[string]string{
	"chaos/seed=7":              "eb83f459313ce204401d52823ff82786ceed80e8ac6ec351ba1aec015828d8d7",
	"chaos/seed=1031":           "e1b36f935c9d61123ccfbc5c28045f409331ad485e209e7eceea3896cf110cbf",
	"shard/seed=7":              "790bfc58031d0e1274f366844726d38e8fcfc028fd16e8f9f6e42d19f9bb5f74",
	"recovery/seed=7":           "db245ac0a03bae5c7e1c2c8952cde493c73ee146f5c808721144ab2ba428b482",
	"recovery/seed=1031":        "eceb00b9e72e294461ca5d94829210a87c73d49e3df5001df95ac1ae8c884379",
	"recycle/seed=11":           "29a8e0c5f10b34ff5e5b71aa16256dcbcbaea5fb302a69f4908d1a45665cfc10",
	"fleet/serial":              "712d32783efe7148e923dfc7ae319f890abfcc14c10d1b98f96816047f0fb935",
	"fleet/sharded/extShards=1": "20804f8e68afd5d3a67943b0da1dd4cae9c9d3a403fdcd1afe296f103fa50cff",
	"fleet/sharded/extShards=2": "2b21c7931c457f68088759d992aae569e8b3512e46703abb7e3dbde6257f6019",
}

// checkJournalPin fails the test when journal does not hash to the digest
// pinned under name.
func checkJournalPin(t *testing.T, name string, journal []byte) {
	t.Helper()
	want, ok := journalPins[name]
	if !ok {
		t.Fatalf("no journal pin named %q", name)
	}
	sum := sha256.Sum256(journal)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%s: journal digest %s, pinned %s", name, got, want)
	}
}

// checkAcrossWorkers is the sharded soaks' determinism proof. It calls run
// at 1, 2 and 4 workers; the workers=1 journal must hash to the digest
// pinned under pin, and every later run must reproduce that journal byte
// for byte and return a same value (a metrics snapshot, recovery
// intervals) that DeepEquals the workers=1 one. Worker count only decides
// which OS thread runs a domain's window; it must never leak into results.
func checkAcrossWorkers(t *testing.T, pin string, run func(workers int) (journal []byte, same any)) {
	t.Helper()
	var refJournal []byte
	var refSame any
	for _, workers := range []int{1, 2, 4} {
		journal, same := run(workers)
		if workers == 1 {
			checkJournalPin(t, pin, journal)
			refJournal, refSame = journal, same
			continue
		}
		if !bytes.Equal(refJournal, journal) {
			t.Errorf("%s workers=%d: journal differs from workers=1 (%d vs %d bytes)",
				pin, workers, len(journal), len(refJournal))
		}
		if !reflect.DeepEqual(refSame, same) {
			t.Errorf("%s workers=%d: %T differs from workers=1", pin, workers, same)
		}
	}
}
