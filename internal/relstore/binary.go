package relstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
)

// Binary relation codec
//
// The binary export is the persistence format of the durable answer log
// (internal/wal): relation snapshots are written with ExportDatabaseBinary and
// loaded back with ImportDatabaseBinary during crash recovery, and the WAL's
// per-record fact encoding reuses the value codec (AppendValueBinary /
// DecodeValueBinary). The format is deliberately simple — length-prefixed
// strings, varint integers, fixed 8-byte floats — with no compression and no
// internal checksums: framing, checksumming and torn-write detection belong to
// the layer that owns the file (the WAL wraps both snapshots and records in
// CRC32-validated envelopes).
//
// Tuples are written in the relation's canonical sorted order together with
// their support records (base flag + derivation count), so exports are
// deterministic byte-for-byte for equal contents and a restored relation
// answers Support queries exactly like the original — ClearDerived and the
// retraction machinery keep working across a snapshot/restore cycle.

// binaryMagic identifies a database-level binary export; the trailing digit is
// the format version. Exports write version 1. Version 2 envelopes, written
// while relations still kept planner statistics, carry a statistics section
// in each relation header (an epoch, a row marker and one distinct marker per
// column); the importer reads past it, so WAL snapshots from that time still
// load.
const (
	binaryMagic       = "RSB1"
	binaryMagicLegacy = "RSB2"
)

// Decoding sanity caps: a corrupt length prefix must not make the importer
// attempt an absurd allocation. Payloads are small (relation names, column
// names, string values), so anything past these caps is corruption.
const (
	maxBinaryString = 1 << 24 // 16 MiB per string value
	maxBinaryArity  = 1 << 12 // columns per relation
)

// AppendValueBinary appends the binary encoding of a value: a type byte
// followed by the payload (varint for ints, 8 little-endian bytes for floats,
// uvarint length + bytes for strings, one byte for bools, nothing for NULL).
func AppendValueBinary(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.t))
	switch v.t {
	case TypeInt:
		buf = binary.AppendVarint(buf, v.i)
	case TypeFloat:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.f))
	case TypeString:
		buf = binary.AppendUvarint(buf, uint64(len(v.s)))
		buf = append(buf, v.s...)
	case TypeBool:
		if v.b {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// DecodeValueBinary decodes one value from the front of data, returning the
// value and the number of bytes consumed.
func DecodeValueBinary(data []byte) (Value, int, error) {
	if len(data) == 0 {
		return Null(), 0, io.ErrUnexpectedEOF
	}
	t := Type(data[0])
	rest := data[1:]
	switch t {
	case TypeNull:
		return Null(), 1, nil
	case TypeInt:
		i, n := binary.Varint(rest)
		if n <= 0 {
			return Null(), 0, fmt.Errorf("relstore: malformed varint in binary value")
		}
		return Int(i), 1 + n, nil
	case TypeFloat:
		if len(rest) < 8 {
			return Null(), 0, io.ErrUnexpectedEOF
		}
		return Float(math.Float64frombits(binary.LittleEndian.Uint64(rest))), 9, nil
	case TypeString:
		l, n := binary.Uvarint(rest)
		if n <= 0 || l > maxBinaryString {
			return Null(), 0, fmt.Errorf("relstore: malformed string length in binary value")
		}
		if uint64(len(rest)-n) < l {
			return Null(), 0, io.ErrUnexpectedEOF
		}
		return String(string(rest[n : n+int(l)])), 1 + n + int(l), nil
	case TypeBool:
		if len(rest) < 1 {
			return Null(), 0, io.ErrUnexpectedEOF
		}
		return Bool(rest[0] != 0), 2, nil
	default:
		return Null(), 0, fmt.Errorf("relstore: unknown value type %d in binary data", int(t))
	}
}

// AppendTupleBinary appends the binary encoding of a tuple: a uvarint arity
// followed by each value.
func AppendTupleBinary(buf []byte, t Tuple) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(t)))
	for _, v := range t {
		buf = AppendValueBinary(buf, v)
	}
	return buf
}

// DecodeTupleBinary decodes one tuple from the front of data, returning the
// tuple and the number of bytes consumed.
func DecodeTupleBinary(data []byte) (Tuple, int, error) {
	arity, n := binary.Uvarint(data)
	if n <= 0 || arity > maxBinaryArity {
		return nil, 0, fmt.Errorf("relstore: malformed tuple arity in binary data")
	}
	off := n
	t := make(Tuple, arity)
	for i := range t {
		v, vn, err := DecodeValueBinary(data[off:])
		if err != nil {
			return nil, 0, err
		}
		t[i] = v
		off += vn
	}
	return t, off, nil
}

// supportedTuple pairs a tuple with its support record for deterministic
// export ordering.
type supportedTuple struct {
	t       Tuple
	base    bool
	derived int
}

// ExportBinary writes one relation — schema, tuples and support records — to
// w. Tuples are written in canonical sorted order, so exports are
// byte-identical for equal relation contents.
func ExportBinary(r *Relation, w io.Writer) error {
	rows := make([]supportedTuple, 0, r.Len())
	r.ScanSupport(func(t Tuple, base bool, derived int) bool {
		rows = append(rows, supportedTuple{t: t, base: base, derived: derived})
		return true
	})
	sort.Slice(rows, func(i, j int) bool { return rows[i].t.Compare(rows[j].t) < 0 })

	buf := make([]byte, 0, 256)
	buf = appendString(buf, r.Name())
	cols := r.Schema().Columns()
	buf = binary.AppendUvarint(buf, uint64(len(cols)))
	for _, c := range cols {
		buf = appendString(buf, c.Name)
		buf = append(buf, byte(c.Type))
	}
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	if _, err := w.Write(buf); err != nil {
		return err
	}
	for _, row := range rows {
		buf = buf[:0]
		flags := byte(0)
		if row.base {
			flags |= 1
		}
		if row.derived > 0 {
			flags |= 2
		}
		buf = append(buf, flags)
		if row.derived > 0 {
			buf = binary.AppendUvarint(buf, uint64(row.derived))
		}
		for _, v := range row.t {
			buf = AppendValueBinary(buf, v)
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// ImportBinary reads one relation previously written by ExportBinary into the
// database, creating the relation when absent (an existing relation must have
// the same schema). Tuples restore with their support records: base tuples are
// inserted as base facts and derivation counts are re-established, so
// ClearDerived and Support behave exactly as on the exported relation.
func ImportBinary(d *Database, rd io.Reader) (*Relation, error) {
	return importBinary(d, asByteReader(rd), false)
}

// importBinary decodes one relation payload; legacyStats reads past the
// statistics section of an RSB2 relation header.
func importBinary(d *Database, br byteReader, legacyStats bool) (*Relation, error) {
	name, err := readString(br)
	if err != nil {
		return nil, fmt.Errorf("relstore: binary import: reading relation name: %w", err)
	}
	arity, err := readUvarint(br, maxBinaryArity)
	if err != nil {
		return nil, fmt.Errorf("relstore: binary import of %s: reading arity: %w", name, err)
	}
	cols := make([]Column, arity)
	seenCols := make(map[string]bool, arity)
	for i := range cols {
		cname, err := readString(br)
		if err != nil {
			return nil, fmt.Errorf("relstore: binary import of %s: reading column: %w", name, err)
		}
		// Validate here rather than letting NewSchema panic: column names in
		// the stream are untrusted input, and corruption must surface as an
		// error.
		if cname == "" {
			return nil, fmt.Errorf("relstore: binary import of %s: empty column name", name)
		}
		if seenCols[cname] {
			return nil, fmt.Errorf("relstore: binary import of %s: duplicate column %q", name, cname)
		}
		seenCols[cname] = true
		tb, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("relstore: binary import of %s: reading column type: %w", name, err)
		}
		if Type(tb) < TypeNull || Type(tb) > TypeBool {
			return nil, fmt.Errorf("relstore: binary import of %s: unknown column type %d", name, int(tb))
		}
		cols[i] = Column{Name: cname, Type: Type(tb)}
	}
	rel, err := d.GetOrCreate(name, NewSchema(cols...))
	if err != nil {
		return nil, err
	}
	if legacyStats {
		// The epoch, the row marker, then one distinct marker per column.
		for i := uint64(0); i < 2+arity; i++ {
			if _, err := readUvarint(br, 1<<40); err != nil {
				return nil, fmt.Errorf("relstore: binary import of %s: reading legacy statistics: %w", name, err)
			}
		}
	}
	count, err := readUvarint(br, 1<<40)
	if err != nil {
		return nil, fmt.Errorf("relstore: binary import of %s: reading tuple count: %w", name, err)
	}
	for i := uint64(0); i < count; i++ {
		flags, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("relstore: binary import of %s: reading tuple flags: %w", name, err)
		}
		derived := uint64(0)
		if flags&2 != 0 {
			// Derivation counts are stored as int32; a larger claim cannot
			// come from a real export and is rejected as corruption (it also
			// must never size a restore loop — see insertWithSupport).
			derived, err = readUvarint(br, math.MaxInt32)
			if err != nil {
				return nil, fmt.Errorf("relstore: binary import of %s: reading derivation count: %w", name, err)
			}
		}
		t := make(Tuple, arity)
		for c := range t {
			v, err := readValue(br)
			if err != nil {
				return nil, fmt.Errorf("relstore: binary import of %s: reading tuple %d: %w", name, i, err)
			}
			t[c] = v
		}
		if flags&1 != 0 || derived > 0 {
			if _, err := rel.insertWithSupport(t, flags&1 != 0, int32(derived)); err != nil {
				return nil, fmt.Errorf("relstore: binary import of %s: %w", name, err)
			}
		}
	}
	return rel, nil
}

// ExportDatabaseBinary writes the named relations (all of them when names is
// nil) to w: a magic header, a relation count, then each relation's
// ExportBinary payload, in sorted name order. Relations named but absent are
// an error.
func ExportDatabaseBinary(d *Database, names []string, w io.Writer) error {
	return exportDatabase(d, names, w, ExportBinary)
}

// exportDatabase writes the envelope of ExportDatabaseBinary, encoding each
// relation's payload through put.
func exportDatabase(d *Database, names []string, w io.Writer, put func(*Relation, io.Writer) error) error {
	if names == nil {
		names = d.Names()
	} else {
		names = append([]string(nil), names...)
		sort.Strings(names)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var hdr []byte
	hdr = binary.AppendUvarint(hdr, uint64(len(names)))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	for _, name := range names {
		r := d.Relation(name)
		if r == nil {
			return fmt.Errorf("relstore: binary export: relation %q does not exist", name)
		}
		if err := put(r, bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ImportDatabaseBinary reads a database-level binary export (RSB1, or a
// legacy RSB2) into d, creating relations as needed, and returns the names of
// the imported relations.
func ImportDatabaseBinary(d *Database, rd io.Reader) ([]string, error) {
	return importDatabase(d, rd, nil)
}

// importDatabase is ImportDatabaseBinary calling after, when non-nil, once
// each relation is in.
func importDatabase(d *Database, rd io.Reader, after func() error) ([]string, error) {
	br := asByteReader(rd)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("relstore: binary import: reading magic: %w", err)
	}
	legacyStats := string(magic) == binaryMagicLegacy
	if !legacyStats && string(magic) != binaryMagic {
		return nil, fmt.Errorf("relstore: binary import: bad magic %q (want %q or %q)", magic, binaryMagic, binaryMagicLegacy)
	}
	count, err := readUvarint(br, 1<<20)
	if err != nil {
		return nil, fmt.Errorf("relstore: binary import: reading relation count: %w", err)
	}
	names := make([]string, 0, count)
	for i := uint64(0); i < count; i++ {
		rel, err := importBinary(d, br, legacyStats)
		if err != nil {
			return nil, err
		}
		names = append(names, rel.Name())
		if after != nil {
			if err := after(); err != nil {
				return nil, err
			}
		}
	}
	return names, nil
}

// byteReader is the reader shape the decoders need: streamed bytes plus
// single-byte reads for varints.
type byteReader interface {
	io.Reader
	io.ByteReader
}

func asByteReader(rd io.Reader) byteReader {
	if br, ok := rd.(byteReader); ok {
		return br
	}
	return bufio.NewReader(rd)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readUvarint(br byteReader, max uint64) (uint64, error) {
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, err
	}
	if v > max {
		return 0, fmt.Errorf("length %d exceeds sanity cap %d", v, max)
	}
	return v, nil
}

func readString(br byteReader) (string, error) {
	l, err := readUvarint(br, maxBinaryString)
	if err != nil {
		return "", err
	}
	b := make([]byte, l)
	if _, err := io.ReadFull(br, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// readValue decodes one value from a stream; the streamed twin of
// DecodeValueBinary.
func readValue(br byteReader) (Value, error) {
	tb, err := br.ReadByte()
	if err != nil {
		return Null(), err
	}
	switch Type(tb) {
	case TypeNull:
		return Null(), nil
	case TypeInt:
		i, err := binary.ReadVarint(br)
		if err != nil {
			return Null(), err
		}
		return Int(i), nil
	case TypeFloat:
		var b [8]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return Null(), err
		}
		return Float(math.Float64frombits(binary.LittleEndian.Uint64(b[:]))), nil
	case TypeString:
		s, err := readString(br)
		if err != nil {
			return Null(), err
		}
		return String(s), nil
	case TypeBool:
		bb, err := br.ReadByte()
		if err != nil {
			return Null(), err
		}
		return Bool(bb != 0), nil
	default:
		return Null(), fmt.Errorf("unknown value type %d", int(tb))
	}
}
