#!/usr/bin/env bash
# Pins the CLI's help and exit-code contract so scripts and CI jobs can
# rely on it:
#   * exit 0  — success, and every `<cmd> --help`
#   * exit 2  — usage errors (unknown command, bad flag value, missing
#               required flag), detected BEFORE any work starts
# Usage: check_cli_contract.sh /path/to/condensa
set -u

CLI="${1:?usage: check_cli_contract.sh /path/to/condensa}"
failures=0

expect_code() {
  local want="$1"; shift
  local label="$1"; shift
  "$@" > /dev/null 2>&1
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $label: expected exit $want, got $got ($*)" >&2
    failures=$((failures + 1))
  else
    echo "ok: $label (exit $got)"
  fi
}

# Reads the v2 binary pools file $2 (layout in docs/durability.md) and
# checks its length and CRC32 trailer. `pools_v2 centroids FILE CSV`
# exits 0 when every row of CSV equals the centroid fs / n of a saved
# group; `pools_v2 restamp FILE ID VERSION OUT` writes FILE to OUT with
# every pool's backend stamp set to (ID, VERSION) and a fresh trailer.
pools_v2() {
  python3 - "$@" <<'PY'
import struct, sys, zlib

mode, path = sys.argv[1], sys.argv[2]
data = open(path, "rb").read()
magic = b"condensa-pools v2\n"
body = data[:-12]
if (not data.startswith(magic) or len(data) < len(magic) + 12 or
        struct.unpack("<QI", data[-12:]) != (len(body), zlib.crc32(body))):
    sys.exit("not a v2 pools file: " + path)
pos = len(magic)


def take(fmt):
    global pos
    values = struct.unpack_from("<" + fmt, body, pos)
    pos += struct.calcsize("<" + fmt)
    return values


task, feature_dim, pool_count = take("BIQ")
out = bytearray(body[:pos])
centroids = []
for _ in range(pool_count):
    label, splits, dim, k, id_len = take("iQIQI")
    (backend,) = take("%ds" % id_len)
    version, groups = take("IQ")
    groups_at = pos
    for _ in range(groups):
        (n,) = take("Q")
        centroids.append([value / n for value in take("%dd" % dim)])
        take("%dd" % (dim * (dim + 1) // 2))
    if mode == "restamp":
        backend, version = sys.argv[3].encode(), int(sys.argv[4])
    out += struct.pack("<iQIQI", label, splits, dim, k, len(backend))
    out += backend + struct.pack("<IQ", version, groups) + body[groups_at:pos]
if pos != len(body):
    sys.exit("trailing bytes in " + path)

if mode == "restamp":
    out += struct.pack("<QI", len(out), zlib.crc32(out))
    open(sys.argv[5], "wb").write(out)
    sys.exit(0)
rows = [[float(v) for v in line.split(",")]
        for line in open(sys.argv[3]) if line.strip()]
stray = [row for row in rows
         if not any(len(row) == len(c) and
                    all((v - w) ** 2 <= 1e-24 for v, w in zip(row, c))
                    for c in centroids)]
sys.exit(1 if not centroids or not rows or stray else 0)
PY
}

# Top-level help and unknown commands.
expect_code 0 "bare --help"            "$CLI" --help
expect_code 2 "no command"             "$CLI"
expect_code 2 "unknown command"        "$CLI" frobnicate

# Every subcommand answers --help with exit 0.
for cmd in condense serve-stream worker fabric query query-server; do
  expect_code 0 "$cmd --help"          "$CLI" "$cmd" --help
done

# serve-stream shard-count validation: rejected before any work.
expect_code 2 "serve-stream --shards=0"        "$CLI" serve-stream --shards=0
expect_code 2 "serve-stream --shards=-3"       "$CLI" serve-stream --shards=-3
expect_code 2 "serve-stream --shards=abc"      "$CLI" serve-stream --shards=abc
# Space-separated form is a bare positional, also a usage error.
expect_code 2 "serve-stream --shards 0"        "$CLI" serve-stream --shards 0

# Unknown flags are usage errors everywhere, including on the new
# subcommands.
expect_code 2 "serve-stream typo flag"   "$CLI" serve-stream --shard=2
expect_code 2 "worker unknown flag"      "$CLI" worker --bogus=1
expect_code 2 "fabric unknown flag"      "$CLI" fabric --bogus=1

# worker/fabric required-flag validation fails fast.
expect_code 2 "worker missing checkpoint root" "$CLI" worker
expect_code 2 "worker bad port"      "$CLI" worker --checkpoint-root=/tmp/x --port=70000
expect_code 2 "fabric missing workers"         "$CLI" fabric
expect_code 2 "fabric bad worker list"  "$CLI" fabric --workers=localhost
expect_code 2 "fabric k below 2"  "$CLI" fabric --workers=127.0.0.1:19999 --k=1

# Anonymization backends: --help advertises the flag and enumerates the
# registered ids; an unknown id is a usage error caught before any file
# I/O and names the available backends.
if "$CLI" --help 2>&1 | grep -q -- "--backend"; then
  echo "ok: --help documents --backend"
else
  echo "FAIL: --help does not document --backend" >&2
  failures=$((failures + 1))
fi
if "$CLI" --help 2>&1 | grep -q "condensation" \
    && "$CLI" --help 2>&1 | grep -q "mdav"; then
  echo "ok: --help enumerates registered backends"
else
  echo "FAIL: --help does not enumerate registered backends" >&2
  failures=$((failures + 1))
fi
expect_code 2 "condense unknown backend" \
  "$CLI" condense --backend=bogus --input=/nonexistent.csv --output=/dev/null
expect_code 2 "serve-stream unknown backend" \
  "$CLI" serve-stream --backend=bogus
expect_code 2 "fabric unknown backend" \
  "$CLI" fabric --workers=127.0.0.1:19999 --backend=bogus
# The input paths do not exist, so a known backend would exit 1: exit 2
# shows the id is refused before any file is read.
expect_code 2 "ingest unknown backend" \
  "$CLI" ingest --backend=bogus --input=/nonexistent.csv \
  --checkpoint-dir=/nonexistent-condensa-dir
expect_code 2 "shard unknown backend" \
  "$CLI" shard --backend=bogus --input=/nonexistent.csv
expect_code 2 "recover unknown backend" \
  "$CLI" recover --backend=bogus --checkpoint-dir=/nonexistent-condensa-dir
if "$CLI" condense --backend=bogus --input=/nonexistent.csv \
    --output=/dev/null 2>&1 | grep -q "available"; then
  echo "ok: unknown backend error lists available ids"
else
  echo "FAIL: unknown backend error does not list available ids" >&2
  failures=$((failures + 1))
fi

# query/query-server flag validation fails fast.
expect_code 2 "query unknown flag"        "$CLI" query --bogus=1
expect_code 2 "query-server unknown flag" "$CLI" query-server --bogus=1
expect_code 2 "query no snapshot source"  "$CLI" query
expect_code 2 "query two sources" \
  "$CLI" query --groups=/tmp/x --checkpoint-dir=/tmp/y
expect_code 2 "query bad op" "$CLI" query --groups=/tmp/x --op=frobnicate
expect_code 2 "query classify without points" \
  "$CLI" query --groups=/tmp/x --op=classify
expect_code 2 "query bad range" "$CLI" query --groups=/tmp/x --range=0:hi:lo
# --range numbers follow the shared decimal grammar (ParseSize for the
# dimension, ParseDouble for the endpoints): no hex, no overflow, no sign
# on the dimension.
for spec in 0:0x10:1 0x1:0:1 0:1e400:1 -1:0:1 +1:0:1 0:1:2, 0:1:2:3; do
  expect_code 2 "query --range=$spec" \
    "$CLI" query --groups=/tmp/x --range="$spec"
done
expect_code 2 "query bad connect" "$CLI" query --connect=nocolon
expect_code 2 "query-server no snapshot source" "$CLI" query-server
expect_code 2 "query-server bad port" \
  "$CLI" query-server --groups=/tmp/x --port=70000
# Read-plane hardening flags: zero/negative values are usage errors
# caught before any state loads or a socket binds.
expect_code 2 "query-server --max-sessions=0" \
  "$CLI" query-server --groups=/tmp/x --max-sessions=0
expect_code 2 "query-server --max-sessions=-2" \
  "$CLI" query-server --groups=/tmp/x --max-sessions=-2
expect_code 2 "query-server --deadline-ms=0" \
  "$CLI" query-server --groups=/tmp/x --deadline-ms=0
expect_code 2 "query-server --deadline-ms=-5" \
  "$CLI" query-server --groups=/tmp/x --deadline-ms=-5
expect_code 2 "query --retries=0" \
  "$CLI" query --groups=/tmp/x --retries=0
expect_code 2 "query --deadline-ms=-1" \
  "$CLI" query --groups=/tmp/x --deadline-ms=-1
# A missing checkpoint directory is a runtime failure (exit 1), reported
# before the server would start listening or any query would run.
expect_code 1 "query missing checkpoint dir" \
  "$CLI" query --checkpoint-dir=/nonexistent-condensa-dir
expect_code 1 "query-server missing checkpoint dir" \
  "$CLI" query-server --checkpoint-dir=/nonexistent-condensa-dir

# Live round-trip: a real query-server with hardening flags on, queried
# through the retrying client path. Exercises --max-sessions and
# --deadline-ms end to end, not just flag parsing.
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"; [ -n "${server_pid:-}" ] && kill "$server_pid" 2>/dev/null' EXIT
{
  echo "0.1,0.2"; echo "0.2,0.1"; echo "0.15,0.25"; echo "0.9,0.8"
  echo "0.8,0.9"; echo "0.85,0.95"; echo "0.12,0.18"; echo "0.88,0.92"
} > "$workdir/data.csv"
if "$CLI" condense --input="$workdir/data.csv" --k=2 --task=none \
    --save-groups="$workdir/groups.bin" --output=/dev/null > /dev/null 2>&1; then
  # The MDAV backend condenses the same fixture and stamps its snapshot.
  expect_code 0 "condense --backend=mdav" \
    "$CLI" condense --input="$workdir/data.csv" --k=2 --task=none \
    --backend=mdav --save-groups="$workdir/groups-mdav.bin" --output=/dev/null
  # Saved statistics are v2 binary; inspect names the format and every
  # pool's backend stamp.
  inspected="$("$CLI" inspect --groups="$workdir/groups-mdav.bin")"
  if printf '%s\n' "$inspected" | grep -qx "format *: v2 binary" &&
      printf '%s\n' "$inspected" | grep -q "^ *backend *: mdav 1$" &&
      ! printf '%s\n' "$inspected" | grep "^ *backend *:" |
        grep -vq ": mdav 1$"; then
    echo "ok: mdav pools file is v2 binary and every pool is stamped mdav 1"
  else
    echo "FAIL: inspect of the mdav pools file: $inspected" >&2
    failures=$((failures + 1))
  fi
  # A group set's stamp picks its sampler everywhere: mdav releases every
  # record as its group's centroid (fs / n), so each row `generate` and
  # `query --op=regenerate` write from the mdav pools must equal a saved
  # centroid; the eigen sampler would scatter rows around them.
  if "$CLI" generate --groups="$workdir/groups-mdav.bin" --seed=3 \
      --output="$workdir/generate-mdav.csv" > /dev/null 2>&1 &&
      pools_v2 centroids "$workdir/groups-mdav.bin" \
        "$workdir/generate-mdav.csv"; then
    echo "ok: generate from mdav pools writes only saved centroids"
  else
    echo "FAIL: generate from mdav pools wrote rows off the centroids" >&2
    failures=$((failures + 1))
  fi
  if "$CLI" query --groups="$workdir/groups-mdav.bin" --op=regenerate \
      --seed=3 --output="$workdir/regen-mdav.csv" > /dev/null 2>&1 &&
      pools_v2 centroids "$workdir/groups-mdav.bin" \
        "$workdir/regen-mdav.csv"; then
    echo "ok: query regenerate from mdav pools writes only saved centroids"
  else
    echo "FAIL: query regenerate from mdav pools wrote rows off the centroids" >&2
    failures=$((failures + 1))
  fi
  # A stamp this build cannot honour is refused, not regenerated under
  # another sampler: a version other than the record's, or an unknown id.
  if ! pools_v2 restamp "$workdir/groups-mdav.bin" mdav 2 \
        "$workdir/groups-mdav2.bin" ||
      ! pools_v2 restamp "$workdir/groups-mdav.bin" bogus 1 \
        "$workdir/groups-bogus.bin"; then
    echo "FAIL: could not restamp the mdav pools file" >&2
    failures=$((failures + 1))
  fi
  expect_code 1 "generate from pools stamped mdav version 2" \
    "$CLI" generate --groups="$workdir/groups-mdav2.bin" \
    --output="$workdir/generate-mdav2.csv"
  expect_code 1 "query regenerate from pools stamped with an unknown id" \
    "$CLI" query --groups="$workdir/groups-bogus.bin" --op=regenerate \
    --output="$workdir/regen-bogus.csv"
  # query recovers a checkpoint under the backend it is stamped with.
  expect_code 0 "ingest --backend=mdav" \
    "$CLI" ingest --input="$workdir/data.csv" --k=2 --backend=mdav \
    --checkpoint-dir="$workdir/mdav-state"
  expect_code 0 "query an mdav checkpoint" \
    "$CLI" query --checkpoint-dir="$workdir/mdav-state" --k=2 --op=aggregate
  # query loads a checkpoint read-only: a torn journal tail (an append
  # still in flight) and a stray temp file, which recovery would repair,
  # keep every file's name and bytes.
  printf 'i 0.5 0.5' >> "$(ls "$workdir"/mdav-state/journal-*.log | head -n 1)"
  printf 'partial' > "$workdir/mdav-state/snapshot-000009.condensa.tmp.1"
  before="$(cd "$workdir/mdav-state" && md5sum * | sort)"
  expect_code 0 "query a checkpoint with a torn tail" \
    "$CLI" query --checkpoint-dir="$workdir/mdav-state" --k=2 --op=aggregate
  if [ "$(cd "$workdir/mdav-state" && md5sum * | sort)" = "$before" ]; then
    echo "ok: query --checkpoint-dir leaves every file unchanged"
  else
    echo "FAIL: query --checkpoint-dir changed the checkpoint directory" >&2
    failures=$((failures + 1))
  fi
  # Regenerated records print in the CSV writer's number form, so stdout
  # and --output carry the same bytes.
  "$CLI" query --groups="$workdir/groups.bin" --op=regenerate --seed=3 \
      --range=0:-inf:inf > "$workdir/regen-stdout.csv" 2> /dev/null
  "$CLI" query --groups="$workdir/groups.bin" --op=regenerate --seed=3 \
      --range=0:-inf:inf --output="$workdir/regen-file.csv" > /dev/null 2>&1
  if [ -s "$workdir/regen-stdout.csv" ] &&
      cmp -s "$workdir/regen-stdout.csv" "$workdir/regen-file.csv"; then
    echo "ok: regenerate stdout matches --output byte for byte"
  else
    echo "FAIL: regenerate stdout differs from --output" >&2
    failures=$((failures + 1))
  fi
  "$CLI" query-server --groups="$workdir/groups.bin" --port=0 \
      --max-sessions=4 --deadline-ms=5000 > "$workdir/server.out" 2>&1 &
  server_pid=$!
  port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's/^listening on \([0-9]*\)$/\1/p' "$workdir/server.out")"
    [ -n "$port" ] && break
    sleep 0.1
  done
  if [ -n "$port" ]; then
    expect_code 0 "query round-trip with retries+deadline" \
      "$CLI" query --connect=127.0.0.1:"$port" --op=aggregate \
      --retries=3 --deadline-ms=5000
    # An infinite deadline means none, as in process.
    expect_code 0 "query round-trip with --deadline-ms=inf" \
      "$CLI" query --connect=127.0.0.1:"$port" --op=aggregate \
      --deadline-ms=inf
  else
    echo "FAIL: query-server never reported its port" >&2
    failures=$((failures + 1))
  fi
  kill "$server_pid" 2>/dev/null
  wait "$server_pid" 2>/dev/null
  server_pid=""
else
  echo "FAIL: condense for the round-trip fixture failed" >&2
  failures=$((failures + 1))
fi

# Every subcommand answers --help with exit 0 and rejects an unknown flag
# with exit 2.
for cmd in condense generate ingest serve-stream shard worker fabric \
    recover query query-server inspect evaluate stats; do
  expect_code 0 "$cmd --help (all commands)"        "$CLI" "$cmd" --help
  expect_code 2 "$cmd unknown flag (all commands)"  "$CLI" "$cmd" --bogus=1
done

# Negative sizes are usage errors, not huge unsigned settings, in both the
# single-pipeline and the sharded serve-stream.
for shards in 1 2; do
  for flag in --k=-1 --queue-capacity=-1 --snapshot-every=-5 --batch-size=-1; do
    expect_code 2 "serve-stream --shards=$shards $flag" \
      "$CLI" serve-stream --checkpoint-dir="$workdir/negative" --records=50 \
      --no-sync --shards="$shards" "$flag"
  done
done

# shard --mode=stream runs the durable sharded service: its checkpoint
# root and the streaming floor k >= 2 are checked before any work, and a
# live run over the fixture writes its gathered groups.
expect_code 2 "shard --mode=stream without --checkpoint-root" \
  "$CLI" shard --mode=stream --records=50
expect_code 2 "shard --mode=stream --k=1" \
  "$CLI" shard --mode=stream --k=1 --records=50 --no-sync \
  --checkpoint-root="$workdir/shard-k1"
rm -f "$workdir/shard-groups.bin"
expect_code 0 "shard --mode=stream live run" \
  "$CLI" shard --mode=stream --input="$workdir/data.csv" --k=2 --shards=2 \
  --no-sync --checkpoint-root="$workdir/shard-stream" \
  --save-groups="$workdir/shard-groups.bin"
if [ -s "$workdir/shard-groups.bin" ]; then
  echo "ok: shard --mode=stream wrote --save-groups"
else
  echo "FAIL: shard --mode=stream did not write --save-groups" >&2
  failures=$((failures + 1))
fi

# One seed, one release: shard --mode=stream and serve-stream --shards=2
# run the same durable sharded service over the same records and both
# regenerate from Rng(--seed), so their group sets and releases are
# byte-equal.
expect_code 0 "shard --mode=stream seeded release" \
  "$CLI" shard --mode=stream --input="$workdir/data.csv" --k=2 --shards=2 \
  --seed=5 --no-sync --checkpoint-root="$workdir/seeded-shard" \
  --save-groups="$workdir/seeded-shard-groups.bin" \
  --output="$workdir/seeded-shard-release.csv"
expect_code 0 "serve-stream --shards=2 seeded release" \
  "$CLI" serve-stream --input="$workdir/data.csv" --k=2 --shards=2 \
  --seed=5 --no-sync --checkpoint-dir="$workdir/seeded-serve" \
  --save-groups="$workdir/seeded-serve-groups.bin" \
  --output="$workdir/seeded-serve-release.csv"
for pin in groups.bin release.csv; do
  if [ -s "$workdir/seeded-shard-$pin" ] &&
      cmp -s "$workdir/seeded-shard-$pin" "$workdir/seeded-serve-$pin"; then
    echo "ok: shard --mode=stream and serve-stream --shards=2 write equal $pin"
  else
    echo "FAIL: shard --mode=stream and serve-stream --shards=2 $pin differ" >&2
    failures=$((failures + 1))
  fi
done

# A regenerate whose --output cannot be written is a runtime failure.
expect_code 1 "query regenerate unwritable output" \
  "$CLI" query --groups="$workdir/groups.bin" --op=regenerate \
  --output=/nonexistent-condensa-dir/x.csv

# Aggregate over a fixed 4-group file: the selection's counts are exact,
# whatever order the moments are folded in.
cat > "$workdir/four-groups.txt" <<'GROUPS'
condensa-pools v1
task 0 feature_dim 2 pools 1
pool label -1 splits 0
condensa-groups v1
dim 2 k 2 groups 4
group n 2
fs 0.22 0.38
sc 0.0244 0.0416 0.0724
group n 2
fs 0.35 0.35
sc 0.0625 0.0575 0.07250000000000001
group n 2
fs 1.78 1.7200000000000002
sc 1.5844 1.5296 1.4864000000000002
group n 2
fs 1.65 1.85
sc 1.3625 1.5275 1.7125
GROUPS
for pin in "0:0.7:0.9|2|4" "|4|8" "1:0.1:0.2|2|4" "0:0.1:0.2,1:0.1:0.2|2|4"; do
  range="${pin%%|*}"; rest="${pin#*|}"
  want_groups="${rest%%|*}"; want_records="${rest#*|}"
  out="$("$CLI" query --groups="$workdir/four-groups.txt" --op=aggregate \
      --range="$range" 2>&1)"
  if printf '%s\n' "$out" | grep -qx "groups matched *: $want_groups" &&
      printf '%s\n' "$out" | grep -qx "records *: $want_records"; then
    echo "ok: aggregate --range=$range matches $want_groups groups, $want_records records"
  else
    echo "FAIL: aggregate --range=$range: want $want_groups groups and $want_records records, got: $out" >&2
    failures=$((failures + 1))
  fi
done
# Both handwritten files here are v1 text, which no build writes any
# more: they pin the v1 reader.
inspected="$("$CLI" inspect --groups="$workdir/four-groups.txt")"
if printf '%s\n' "$inspected" | grep -qx "format *: v1 text" &&
    printf '%s\n' "$inspected" | grep -qx " *backend *: condensation 1"; then
  echo "ok: inspect reads the v1 text pools file and its default stamp"
else
  echo "FAIL: inspect of the v1 text pools file: $inspected" >&2
  failures=$((failures + 1))
fi
# A group file with a NaN first-order sum is corrupt: loading it fails
# (exit 1) before any answer, instead of the NaN centroid falling inside
# every range.
sed 's/^fs 0.35 0.35$/fs nan 0.35/' "$workdir/four-groups.txt" \
  > "$workdir/nan-groups.txt"
out="$("$CLI" query --groups="$workdir/nan-groups.txt" --op=aggregate \
    --range=0:0.7:0.8 2>&1)"
code=$?
if [ "$code" -eq 1 ] && ! printf '%s\n' "$out" | grep -q "groups matched" &&
    printf '%s\n' "$out" | grep -q "non-finite fs value in group 1"; then
  echo "ok: a NaN fs value is refused (exit 1, no answer, group named)"
else
  echo "FAIL: NaN fs group file: exit $code, output: $out" >&2
  failures=$((failures + 1))
fi

# Releases are renamed into place, but --output=/dev/null (used above) is
# written in place: the device node must survive the whole contract.
if [ -c /dev/null ]; then
  echo "ok: /dev/null is still a character device"
else
  echo "FAIL: /dev/null is no longer a character device" >&2
  failures=$((failures + 1))
fi

if [ "$failures" -ne 0 ]; then
  echo "$failures CLI contract check(s) failed" >&2
  exit 1
fi
echo "CLI contract holds"
