#!/usr/bin/env bash
# The installed `stscq` console script through toy pipelines, checked by exit
# codes and by `cmp`. Run with bash -e, so any unexpected nonzero exit fails:
#
#     bash -e tests/e2e.sh [DIR]
#
# It works in DIR (default: a new temporary directory), which must not hold
# the files of an earlier run. `stscq` must be on PATH, as `pip install -e .`
# puts it.
set -e
cd "${1:-$(mktemp -d)}"
stscq synth --kind images --out imgs --clusters 2 --width 16 --height 16 --patch-size 4 --samples 16 --seed 0
stscq train --data imgs/manifest.json --out-dir run --M 2 --K 4 --T 16 --d 4 --steps-stage1 80 --steps-stage2 80 --learning-rate 0.05 --batch-size 8 --lam1 1.0 --router-warmup 20 --seed 0
stscq encode --image imgs/img_00000.pgm --pca run/pca.pca --pool run/pool_stage2.pool --out img.stscq
stscq decode --stream img.stscq --pool run/pool_stage2.pool --pca run/pca_stage3.pca --out recon.pgm
# images and streams are rewritten in place and cut to length: onto a longer old file each is the fresh output, byte for byte
head -c 100000 /dev/zero > old.stscq; head -c 100000 /dev/zero > old.pgm
stscq encode --image imgs/img_00000.pgm --pca run/pca.pca --pool run/pool_stage2.pool --out old.stscq
stscq decode --stream img.stscq --pool run/pool_stage2.pool --pca run/pca_stage3.pca --out old.pgm
cmp old.stscq img.stscq; cmp old.pgm recon.pgm
stscq eval --data imgs/manifest.json --pool run/pool_stage2.pool --pca run/pca.pca --out rd.csv
# a NaN at a code the stream gathers is a data error that writes no image: exit 3
python -c "from stscq import bitstream as b, codebook as c; import numpy as np; p = c.load_pool('run/pool_stage2.pool'); q = b.deserialize(open('img.stscq', 'rb').read(), p); codes = np.array(p.codes); codes[q.group_index, 0, q.indices[0]] = np.nan; c.save_pool(c.CodebookPool(codes, frozen=p.frozen, T=p.T), 'nan.pool')"
rc=0; stscq decode --stream img.stscq --pool nan.pool --pca run/pca_stage3.pca --out nan.pgm || rc=$?; test "$rc" -eq 3; test ! -e nan.pgm
# the same NaN makes its group's error NaN, so NN routing refuses it on encode and eval: exit 3, no output
rc=0; stscq encode --image imgs/img_00000.pgm --pca run/pca.pca --pool nan.pool --out nan.stscq || rc=$?; test "$rc" -eq 3; test ! -e nan.stscq
rc=0; stscq eval --data imgs/manifest.json --pool nan.pool --pca run/pca.pca --out nan.csv || rc=$?; test "$rc" -eq 3; test ! -e nan.csv
# a sweep over the images reports their own bpp, as eval does, with pixel MSE and PSNR
stscq sweep --data imgs/manifest.json --m-values 1,2 --out isweep.csv --K 4 --T 16 --d 4 --steps-stage1 40 --steps-stage2 40 --learning-rate 0.05 --batch-size 8 --seed 0
# a --m-values entry that is not an integer is refused by argparse: exit 2
rc=0; stscq sweep --data imgs/manifest.json --m-values a,2 --out bad.csv || rc=$?; test "$rc" -eq 2; test ! -e bad.csv
# eval over a manifest without --pca is a configuration error: exit 2
rc=0; stscq eval --data imgs/manifest.json --pool run/pool_stage2.pool --out nopca.csv || rc=$?; test "$rc" -eq 2
# a manifest without its spec and a NaN sigma are configuration errors: exit 2
python -c "import json; m = json.load(open('imgs/manifest.json')); del m['spec']; json.dump(m, open('imgs/nospec.json', 'w'))"
rc=0; stscq eval --data imgs/nospec.json --pool run/pool_stage2.pool --pca run/pca.pca --out nospec.csv || rc=$?; test "$rc" -eq 2
rc=0; stscq synth --kind tokens --out nan.npz --sigma nan || rc=$?; test "$rc" -eq 2
# a token corpus: stages 1 and 2 as separate runs, the CR policy with its router, and a sweep
stscq synth --kind tokens --out toks.npz --clusters 4 --tokens 4 --dim 4 --samples 128 --seed 0
stscq train --data toks.npz --out-dir trun --stage 1 --M 2 --K 8 --T 4 --d 4 --steps-stage1 80 --learning-rate 0.05 --batch-size 16 --lam1 1.0 --router-warmup 20 --seed 0
stscq train --data toks.npz --out-dir trun --stage 2 --M 2 --K 8 --T 4 --d 4 --steps-stage2 80 --learning-rate 0.05 --batch-size 16 --lam1 1.0 --seed 0
stscq eval --data toks.npz --pool trun/pool_stage2.pool --router trun/router_stage2.rtr --policy cr --out trd.csv
stscq sweep --data toks.npz --m-values 1,2 --out sweep.csv --K 8 --T 4 --d 4 --steps-stage1 40 --steps-stage2 40 --learning-rate 0.05 --batch-size 16 --seed 0
python -c "import numpy as np; np.save('tok.npy', np.load('toks.npz')['tokens'][0])"
stscq encode --tokens tok.npy --width 8 --height 8 --pool trun/pool_stage2.pool --router trun/router_stage2.rtr --policy cr --out tok.stscq
stscq decode --stream tok.stscq --pool trun/pool_stage2.pool --out tok_back.npy
# decoded tokens go to exactly the --out name, .npy or not: numpy.save would append .npy to tok_back.tok
stscq decode --stream tok.stscq --pool trun/pool_stage2.pool --out tok_back.tok
cmp tok_back.tok tok_back.npy; test ! -e tok_back.tok.npy
# --tokens takes one .npy array; a .npz archive is a data error: exit 3
rc=0; stscq encode --tokens toks.npz --width 8 --height 8 --pool trun/pool_stage2.pool --out npz.stscq || rc=$?; test "$rc" -eq 3
# stage 3 needs images, so the default --stage all over tokens is a data error that trains nothing
rc=0; stscq train --data toks.npz --out-dir tall --M 2 --K 8 --T 4 --d 4 || rc=$?; test "$rc" -eq 3; test ! -e tall/pool_stage1.pool
# a truncated token corpus is a data error: exit 3
head -c 1000 toks.npz > cut.npz
rc=0; stscq eval --data cut.npz --pool trun/pool_stage2.pool --out cut.csv || rc=$?; test "$rc" -eq 3
# a window index beside a frozen pool at K >= 256: encode gives the same bytes
# through it as after deleting it, after `stscq index` rebuilds it, and from a
# copy of the pool in another directory, whose index is stale and ignored
python -c "import numpy as np; from stscq import codebook as c; c.save_pool(c.CodebookPool(np.random.default_rng(0).standard_normal((2, 16, 256, 4)), frozen=True), 'big.pool')"
test -e big.pool.pidx
stscq encode --image imgs/img_00000.pgm --pca run/pca.pca --pool big.pool --out indexed.stscq
rm big.pool.pidx
stscq encode --image imgs/img_00000.pgm --pca run/pca.pca --pool big.pool --out dense.stscq
cmp indexed.stscq dense.stscq
stscq index --pool big.pool
test -e big.pool.pidx
stscq encode --image imgs/img_00000.pgm --pca run/pca.pca --pool big.pool --out rebuilt.stscq
cmp indexed.stscq rebuilt.stscq
mkdir copied; cp -p big.pool big.pool.pidx copied/
stscq encode --image imgs/img_00000.pgm --pca run/pca.pca --pool copied/big.pool --out copied.stscq
cmp indexed.stscq copied.stscq
# CR encode searches its routed group through the same index, with the bytes it
# gives after the index is deleted
python -c "from stscq import router as r; r.save_router(r.init_router(4, 2, seed=0), 'big.rtr')"
stscq encode --image imgs/img_00000.pgm --pca run/pca.pca --pool big.pool --router big.rtr --policy cr --out cr_indexed.stscq
rm big.pool.pidx
stscq encode --image imgs/img_00000.pgm --pca run/pca.pca --pool big.pool --router big.rtr --policy cr --out cr_dense.stscq
cmp cr_indexed.stscq cr_dense.stscq
