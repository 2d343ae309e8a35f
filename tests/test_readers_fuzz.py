"""Every file reader returns an object or raises TvTomoError on any bytes;
the image and sinogram readers raise FormatError."""

import itertools
import os
import struct
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import tvtomo as tv
from tvtomo.errors import FormatError, TvTomoError

# The starts of valid files, so that examples get past the header check as
# well as fail at it.
_dims = st.integers(-2, 3)
READERS = {
    "read_config": (tv.read_config, st.sampled_from([b"command=", b"# note\n"])),
    "read_sweep_csv": (tv.read_sweep_csv,
                       st.just(b"alpha,n,tv,residual,iterations,status\n")),
    "read_sinogram_csv": (tv.read_sinogram_csv, st.sampled_from([b"", b"1.0,2.0\n"])),
    "read_image": (tv.read_image, _dims.map(lambda n: b"TVTOMO-IMG %d\n" % n)),
    "read_sinogram": (tv.read_sinogram, st.tuples(_dims, _dims).map(
        lambda d: b"TVTOMO-SINO %d %d\n" % d)),
}

_bodies = st.one_of(
    st.binary(max_size=64),
    st.text(max_size=32).map(str.encode),
    st.lists(st.floats(), max_size=9).map(lambda xs: struct.pack(f"<{len(xs)}d", *xs)),
)


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_returns_object_or_tvtomo_error(name):
    reader, starts = READERS[name]
    expected = (FormatError if name in ("read_image", "read_sinogram", "read_sinogram_csv")
                else TvTomoError)
    contents = st.one_of(st.binary(max_size=64), st.tuples(starts, _bodies).map(b"".join))

    with tempfile.TemporaryDirectory() as tmp:
        # a fresh file per example: truncating an existing one can flush it to
        # disk first, which costs tens of milliseconds per write on ext4
        names = (os.path.join(tmp, f"input{i}") for i in itertools.count())

        @settings(max_examples=200, derandomize=True, deadline=None, database=None)
        @given(contents)
        def check(data):
            path = next(names)
            with open(path, "wb") as fh:
                fh.write(data)
            try:
                reader(path)
            except expected:
                pass

        check()
