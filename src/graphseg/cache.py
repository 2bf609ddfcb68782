"""The graph and eigenbasis caches: .npz archives tagged with a format key."""

import zipfile

import numpy as np

FORMAT_KEYS = {"edge cache": "graphseg-graph v2", "eigencache": "graphseg-eigs v2"}


def save_arrays(path, cache, **arrays):
    """Write `arrays` and the format key of `cache` to an .npz archive at `path`."""
    with open(path, "wb") as f:  # given a file name, np.savez would append ".npz"
        np.savez(f, format=np.array(FORMAT_KEYS[cache]), **arrays)


def load_arrays(path, cache, names):
    """Return the arrays `names` of a `cache` archive; other files raise ValueError.

    Nothing is unpickled. A bare .npy loads as an ndarray, which `with` rejects.
    """
    try:
        with np.load(path, allow_pickle=False) as archive:
            if archive["format"].tolist() != FORMAT_KEYS[cache]:
                raise KeyError("format")
            return [archive[name] for name in names]
    except (ValueError, EOFError, KeyError, TypeError, AttributeError,
            zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: not a graphseg {cache}") from exc
