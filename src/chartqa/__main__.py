from .cli import main

# importing this module (as tools that scan a package do) must not start the CLI
if __name__ == "__main__":
    main()
