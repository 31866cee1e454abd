#!/bin/sh
# Full command-line workflow against a synthetic world, start to finish:
# generate scans, project, label, train, embed, search, evaluate both
# protocols, selfcheck, bench.
# Needs the package installed (pip install -e . --no-build-isolation).
set -e

WORK="${1:-$(mktemp -d)}"
mkdir -p "$WORK"
echo "working in $WORK"

cat > "$WORK/world.kv" <<EOF
seed=42
n_places=4
visits_per_place=2
h=8
w=32
n_obstacles=4
EOF

cat > "$WORK/config.kv" <<EOF
h=8
w=32
stage=8,2,2
stage=8,2,2
stage=8,2,2
olm_n=2
vlad_k=2
mlp_hidden=8
out_dim=8
loss=imtrihard
lr=0.0005
epochs=2
k_p=2
k_n=2
seed=42
EOF

rangeloop synth --spec "$WORK/world.kv" --out "$WORK/world"
rangeloop project --scans "$WORK/world" --config "$WORK/world/sensor.kv" \
    --out "$WORK/images"
rangeloop overlaps --scans "$WORK/world" --poses "$WORK/world/poses.txt" \
    --config "$WORK/world/sensor.kv" --out "$WORK/labels.txt"
rangeloop train --data "$WORK/images" --labels "$WORK/labels.txt" \
    --config "$WORK/config.kv" --out "$WORK/ckpt"
rangeloop embed --ranges "$WORK/images" --ckpt "$WORK/ckpt/final.omck" \
    --out "$WORK/db.omdb"
rangeloop search --db "$WORK/db.omdb" --query "$WORK/db.omdb" --k 3 \
    > "$WORK/hits.csv"
head -4 "$WORK/hits.csv"

cat > "$WORK/protocol.kv" <<EOF
kind=loop_closure
overlap_threshold=0.3
window=3
EOF
rangeloop eval-loop --db "$WORK/db.omdb" --poses "$WORK/world/poses.txt" \
    --labels "$WORK/labels.txt" --protocol "$WORK/protocol.kv"

# the trajectory as both sessions of the cross-session protocol
cat > "$WORK/place.kv" <<EOF
kind=place_recognition
distance_threshold=10.0
EOF
rangeloop eval-place --db "$WORK/db.omdb" --query-db "$WORK/db.omdb" \
    --poses-a "$WORK/world/poses.txt" --poses-b "$WORK/world/poses.txt" \
    --protocol "$WORK/place.kv"

rangeloop selfcheck
rangeloop bench --ckpt "$WORK/ckpt/final.omck" --reps 1
echo "workflow complete; artifacts in $WORK"
