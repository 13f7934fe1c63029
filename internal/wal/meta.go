package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"hyperprov/internal/db"
	"hyperprov/internal/engine"
)

// metaMagic identifies the META file (format version 1).
const metaMagic = "HPWM1\n"

// errNoMeta reports a directory without a META file — a fresh store.
var errNoMeta = errors.New("wal: no META file")

// metaInfo is the store identity persisted once at bootstrap: the
// provenance mode, the schema, and whether the bootstrap database had
// rows (in which case a loadable checkpoint must exist — a WAL-only
// recovery would silently drop the initial data).
type metaInfo struct {
	mode    engine.Mode
	schema  *db.Schema
	hasInit bool
}

// encodeSchema appends the canonical schema encoding — shared by the
// META file and the replication handshake, so a follower bootstraps
// exactly the identity a local bootstrap would persist.
func encodeSchema(e *recEncoder, schema *db.Schema) {
	names := schema.Names()
	e.uvarint(uint64(len(names)))
	for _, name := range names {
		rel := schema.Relation(name)
		e.str(rel.Name)
		e.uvarint(uint64(len(rel.Attrs)))
		for _, a := range rel.Attrs {
			e.str(a.Name)
			e.byte(byte(a.Kind))
		}
	}
}

// decodeSchema reads the canonical schema encoding with the usual
// hostile-input bounds.
func decodeSchema(d *recDecoder) (*db.Schema, error) {
	nRels := d.count(maxWireCount, "relation")
	rels := make([]*db.RelationSchema, 0, min(nRels, 1024))
	for i := 0; i < nRels; i++ {
		name := d.str()
		attrs := make([]db.Attribute, d.count(maxWireArity, "attribute"))
		for j := range attrs {
			attrs[j] = db.Attribute{Name: d.str(), Kind: db.Kind(d.byte())}
		}
		if d.err != nil {
			return nil, d.err
		}
		rel, err := db.NewRelationSchema(name, attrs...)
		if err != nil {
			return nil, err
		}
		rels = append(rels, rel)
	}
	if d.err != nil {
		return nil, d.err
	}
	return db.NewSchema(rels...)
}

// writeMeta persists the store identity via temp file (META.tmp, which
// bootstrap cleans up after an interrupted first open) + fsync + atomic
// rename, like every other durable write in this package.
func writeMeta(fs FS, dir string, mode engine.Mode, schema *db.Schema, hasInit bool) error {
	var e recEncoder
	e.buf.WriteString(metaMagic)
	e.byte(byte(mode))
	if hasInit {
		e.byte(1)
	} else {
		e.byte(0)
	}
	encodeSchema(&e, schema)
	return writeBlobAtomic(fs, dir, metaName, e.buf.Bytes())
}

// readMeta loads the store identity; errNoMeta when absent.
func readMeta(fs FS, dir string) (*metaInfo, error) {
	data, err := fs.ReadFile(filepath.Join(dir, metaName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, errNoMeta
		}
		return nil, err
	}
	if len(data) < len(metaMagic) || string(data[:len(metaMagic)]) != metaMagic {
		return nil, fmt.Errorf("%w: bad META magic", ErrCorrupt)
	}
	d := &recDecoder{buf: data[len(metaMagic):]}
	mode, hasInit := d.byte(), d.byte()
	if d.err != nil {
		return nil, fmt.Errorf("%w: truncated META", ErrCorrupt)
	}
	schema, err := decodeSchema(d)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return &metaInfo{mode: engine.Mode(mode), schema: schema, hasInit: hasInit == 1}, nil
}
