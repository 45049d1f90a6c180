"""``python -m sixvertex ...`` runs the ``sixvertex`` command."""
from .cli import main
raise SystemExit(main())
