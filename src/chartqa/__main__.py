from .cli import main

# spawn workers re-import the main module; only a real run may start the CLI
if __name__ == "__main__":
    main()
