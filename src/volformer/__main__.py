"""``python -m volformer``: the ``volformer`` command without an installed script."""

from .cli import main

raise SystemExit(main())
