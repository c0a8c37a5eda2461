package elastic

import bin "encoding/binary"

// readRenamed reads the length through a renamed import of
// encoding/binary, which a match on the spelling "binary" misses.
func readRenamed(b []byte) []byte {
	return make([]byte, bin.LittleEndian.Uint32(b)) // want `make sized by a raw wire read`
}
