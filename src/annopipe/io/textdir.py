"""Loading raw text corpora as documents."""

from __future__ import annotations

import os
from pathlib import Path

from ..core import Document, create_document
from ..exceptions import DecodeError


def read_utf8(path) -> str:
    """The file at ``path`` decoded as UTF-8, newlines as they stand (offsets
    count every character); DecodeError names the file."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError(str(path), exc.start) from exc


def load_text_documents(path) -> list[Document]:
    """One document per UTF-8 .txt file; a file path loads a single document.

    Documents are returned in filename order; metadata carries the source
    filename under "filename".
    """
    path = Path(path)
    if path.is_dir():
        files = [path / name for name in sorted(os.listdir(path)) if name.endswith(".txt")]
    else:
        files = [path]
    return [create_document(read_utf8(file), {"filename": file.name}) for file in files]
