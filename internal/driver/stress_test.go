package driver

import (
	"sync"
	"testing"

	"automap/internal/profile"
)

// TestConcurrentDBRecord pins profile.DB's own locking: concurrent Record,
// RecordFailure, Lookup, Save-path iteration (Keys) on overlapping
// keys.
func TestConcurrentDBRecord(t *testing.T) {
	db := profile.NewDB()
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < 500; r++ {
				k := keys[(i+r)%len(keys)]
				switch r % 4 {
				case 0:
					db.Record(k, []float64{float64(r)})
				case 1, 2:
					db.Lookup(k)
				case 3:
					db.Keys()
				}
			}
		}(i)
	}
	wg.Wait()
	if db.Len() != len(keys) {
		t.Fatalf("DB.Len() = %d, want %d", db.Len(), len(keys))
	}
}
